"""Start the benchmark's server process through the public service API.

Run from the root of a checkout::

    python3 perfbench/launcher.py --spec '<json>' [--train] [--trace]

It builds what ``ppdm serve`` builds from a spec — the default
configuration, plus a :class:`TrainingService` with ``--train`` and a
mining tier when the spec has a ``"mining"`` section — prints
``PORT <n>`` once the socket is bound, and serves until its standard
input closes.  With ``--trace`` the layer entry points are wrapped with
:class:`spans.Recorder` spans before the server is built, and the spans
are printed as one ``SPANS <json>`` line at shutdown.  The program's
own code is never edited: the wrappers replace attributes in this
process only.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from urllib.parse import urlparse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import REQUEST_SPAN, Recorder  # noqa: E402

#: request header carrying the load generator's id for one request; the
#: server ignores it, the traced handler copies it onto the request span
REQUEST_ID_HEADER = "X-Perfbench-Id"


def _wrap_method(recorder, owner, attr, name, annotate=None):
    original = getattr(owner, attr)

    def traced(self, *args, **kwargs):
        with recorder.span(name) as attrs:
            if annotate is not None:
                attrs.update(annotate(self))
            return original(self, *args, **kwargs)

    setattr(owner, attr, traced)


def _wrap_function(recorder, module, attr, name):
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, traced)


def _wrap_generator(recorder, module, attr, name):
    """Time each item pulled from a lazy frame iterator, not its creation."""
    original = getattr(module, attr)

    def traced(*args, **kwargs):
        frames = original(*args, **kwargs)
        while True:
            with recorder.span(name):
                try:
                    frame = next(frames)
                except StopIteration:
                    return
            yield frame

    setattr(module, attr, traced)


def install_tracing(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    from repro.service import httpd
    from repro.service.mining import MiningService
    from repro.service.service import AggregationService
    from repro.service.training import TrainingService

    base_server = httpd.ThreadingHTTPServer

    class TracedHTTPServer(base_server):
        def __init__(self, address, handler):
            super().__init__(address, _traced_handler(recorder, handler))

    httpd.ThreadingHTTPServer = TracedHTTPServer
    _wrap_function(recorder, httpd, "decompress_payload", "wire.decompress")
    _wrap_generator(recorder, httpd, "iter_labeled_frames", "wire.decode")
    _wrap_generator(recorder, httpd, "iter_basket_frames", "wire.decode")
    _wrap_method(recorder, AggregationService, "prepare", "shards.prepare")
    _wrap_method(recorder, AggregationService, "ingest_prepared", "shards.absorb")
    _wrap_method(recorder, AggregationService, "estimate", "service.estimate")
    _wrap_method(
        recorder, TrainingService, "prepare_rows", "training.prepare_rows"
    )
    _wrap_method(recorder, TrainingService, "absorb_rows", "training.absorb_rows")
    _wrap_method(
        recorder, TrainingService, "train", "training.train",
        annotate=lambda training: {"buffered_rows": training.n_buffered},
    )
    _wrap_method(recorder, MiningService, "prepare", "mining.prepare")
    _wrap_method(recorder, MiningService, "ingest_prepared", "mining.absorb")
    _wrap_method(recorder, MiningService, "mine", "mining.mine")


def _traced_handler(recorder: Recorder, handler):
    """Subclass the server's handler so each request is one root span.

    The span opens after the request line and headers are parsed and
    closes once the reply is written to the socket, so the client's
    latency minus this span is time spent outside the handler: in the
    network stack, the TCP stall, and the client itself.
    """

    class TracedHandler(handler):
        def _traced(self, method: str, call) -> None:
            route = f"{method} {urlparse(self.path).path}"
            request_id = self.headers.get(REQUEST_ID_HEADER)
            with recorder.span(REQUEST_SPAN, route=route, id=request_id):
                call(self)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._traced("GET", handler.do_GET)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            self._traced("POST", handler.do_POST)

        def send_response(self, code, message=None) -> None:
            recorder.annotate(status=code)
            super().send_response(code, message)

    return TracedHandler


def build_server(spec: dict, train: bool):
    from repro.service import (
        ServiceHTTPServer,
        TrainingService,
        mining_from_spec,
        service_from_spec,
    )

    service = service_from_spec(spec)
    training = TrainingService(service) if train else None
    mining = mining_from_spec(spec["mining"]) if "mining" in spec else None
    return ServiceHTTPServer(service, training=training, mining=mining)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="service spec as JSON")
    parser.add_argument("--train", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        install_tracing(recorder)
    server = build_server(json.loads(args.spec), args.train)
    thread = threading.Thread(target=server.serve_forever, name="serve")
    thread.start()
    print(f"PORT {server.address[1]}", flush=True)
    try:
        # the load generator closes our stdin after closing its own
        # connections, so no handler thread is left waiting on a socket
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
    if recorder is not None:
        print("SPANS " + json.dumps(recorder.spans), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
