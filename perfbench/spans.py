"""In-memory span recording and the per-layer self-time roll-up.

The launcher (``launcher.py --trace``) wraps the server's layer entry
points with :meth:`Recorder.span`; every handler thread gets a request
id when its request span opens, and child spans inherit it.  Spans are
kept in memory and written out once, at shutdown, as plain lists::

    [span_id, parent_id, request_id, name, start_ns, end_ns, attrs]

:func:`self_times` and :func:`layer_summary` turn that list back into
per-request, per-layer self time (span duration minus the time its
child spans cover) on the benchmark side.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager

#: the span each handler thread opens around one HTTP request
REQUEST_SPAN = "httpd.request"


class Recorder:
    """Collect spans from many threads without a lock on the hot path.

    ``itertools.count`` and ``list.append`` are atomic under the
    interpreter lock, so concurrent handler threads never interleave a
    span id or a record.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the ``with`` body as a child of this thread's open span.

        Yields the span's attribute dict, so the body can annotate it
        (a status code, a buffer size) before the span closes.
        """
        stack = self._stack()
        span_id = next(self._ids)
        if name == REQUEST_SPAN:
            self._local.request = span_id
        parent = stack[-1][0] if stack else None
        request = getattr(self._local, "request", None)
        stack.append((span_id, attrs))
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append([span_id, parent, request, name, start, end, attrs])

    def annotate(self, **attrs) -> None:
        """Add attributes to this thread's innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1][1].update(attrs)


def self_times(spans) -> list:
    """``(request_id, name, self_ns)`` for every span.

    Self time is the span's duration minus its children's durations;
    children of one span run on the span's own thread one after
    another, so their durations never overlap.
    """
    child_ns: dict = {}
    for _id, parent, _request, _name, start, end, _attrs in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return [
        (request, name, end - start - child_ns.get(span_id, 0))
        for span_id, _parent, request, name, start, end, _attrs in spans
    ]


def layer_summary(spans, requests=None) -> dict:
    """Median per-request self time (ms) of every layer, plus counts.

    For each layer name, the self times of its spans inside one request
    are summed; the median is taken over the requests that touched the
    layer.  ``requests`` restricts the roll-up to those request ids.
    """
    per_request: dict = {}
    for request, name, self_ns in self_times(spans):
        if requests is not None and request not in requests:
            continue
        key = (name, request)
        per_request[key] = per_request.get(key, 0) + self_ns
    by_layer: dict = {}
    for (name, _request), total_ns in per_request.items():
        by_layer.setdefault(name, []).append(total_ns / 1e6)
    return {
        name: {"median_ms": statistics.median(values), "requests": len(values)}
        for name, values in by_layer.items()
    }
