"""One measured pass of each workload against fresh server processes.

A pass launches the server (plus set-up probes, so ``setup_s`` is a
median), drives the workload's closed loop, runs the correctness gate
outside the timed window, reads the server's peak RSS, and stops it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

import bodies
import gate
from loadgen import TIMEOUT_S, Client, Ledger, ServerProcess

#: launches per pass whose only job is to time set-up; with the working
#: server(s) they give ``setup_s`` at least five samples
SETUP_PROBES = 4
#: untimed requests per connection before the timed window (lazy
#: kernels, first-touch allocations, thread start-up)
WARMUP_REQUESTS = 3
#: GET /healthz probes timed in a traced pass (httpd.floor_ms)
FLOOR_PROBES = 20


@dataclass
class Pass:
    """Everything one pass measured."""

    ledger: Ledger = field(default_factory=Ledger)
    setup_s: list = field(default_factory=list)
    peak_rss_kb: list = field(default_factory=list)
    ingest_wall_s: float = 0.0  # summed over the timed windows
    spans: list = field(default_factory=list)  # traced passes only
    train_rss_kb: list = field(default_factory=list)  # after each /train
    em_iterations: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _attribute_names(spec: dict) -> list:
    return [attribute["name"] for attribute in spec["attributes"]]


def _run_threads(targets) -> None:
    """Run each target on its own thread; re-raise the first failure."""
    errors = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    # daemon threads: an aborted run must not wait on a stuck socket
    threads = [
        threading.Thread(target=guarded, args=(t,), daemon=True)
        for t in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _launch(result: Pass, spec: dict, *, train: bool, trace: bool):
    server = ServerProcess(spec, train=train, trace=trace)
    result.setup_s.append(server.setup_s)
    return server


def _probe_setup(result: Pass, spec: dict, *, train: bool, trace: bool) -> None:
    for _ in range(SETUP_PROBES):
        _launch(result, spec, train=train, trace=trace).stop()


def _finish(result: Pass, server: ServerProcess, clients) -> None:
    """Read peak RSS, close every connection, stop, keep the spans."""
    result.peak_rss_kb.append(server.status_kb("VmHWM"))
    for client in clients:
        client.close()
    spans = server.stop()
    if spans is not None:
        # span ids restart in every server process: qualify them
        server_index = len(result.peak_rss_kb)
        for span in spans:
            for field_index in (0, 1, 2):
                if span[field_index] is not None:
                    span[field_index] = f"{server_index}.{span[field_index]}"
        result.spans.extend(spans)


def _floor_probes(result: Pass, port: int) -> None:
    client = Client(port, "floor", result.ledger)
    try:
        for _ in range(FLOOR_PROBES):
            client.get("healthz", "/healthz")
    finally:
        client.close()


def ingest_pass(plan, seconds: float, trace: bool) -> Pass:
    """Two writer connections stream their body pools for ``seconds``."""
    result = Pass()
    _probe_setup(result, plan.spec, train=False, trace=trace)
    server = _launch(result, plan.spec, train=False, trace=trace)
    clients = []
    try:
        if trace:
            _floor_probes(result, server.port)
        clients = [
            Client(server.port, f"w{i}", result.ledger)
            for i in range(len(plan.pools))
        ]
        acked = [[0] * len(pool) for pool in plan.pools]
        window = {}

        def open_window() -> None:
            window["start"] = time.perf_counter()
            window["deadline"] = window["start"] + seconds

        ready = threading.Barrier(len(clients), action=open_window)

        def writer(i: int) -> None:
            pool, client, counts = plan.pools[i], clients[i], acked[i]
            for k in range(WARMUP_REQUESTS):
                counts[k % len(pool)] += client.post_body(
                    pool[k % len(pool)], timed=False
                )
            ready.wait(TIMEOUT_S)
            k = WARMUP_REQUESTS
            while time.perf_counter() < window["deadline"]:
                counts[k % len(pool)] += client.post_body(pool[k % len(pool)])
                k += 1

        _run_threads([lambda i=i: writer(i) for i in range(len(clients))])
        start = window["start"]
        result.ingest_wall_s = time.perf_counter() - start

        # the gate: outside the timed window, before the server stops
        gate_client = Client(server.port, "gate", result.ledger)
        clients.append(gate_client)
        _, partial = gate_client.get("gate", "/partial", timed=False)
        estimates = {}
        for name in _attribute_names(plan.spec):
            _, estimates[name] = gate_client.get(
                "gate", f"/estimate?attribute={name}", timed=False
            )
        _finish(result, server, clients)
    except BaseException:
        for client in clients:
            client.close()
        server.kill()
        raise
    reference = gate.ingest_reference(
        plan.spec,
        [
            (body, count)
            for pool, counts in zip(plan.pools, acked)
            for body, count in zip(pool, counts)
        ],
    )
    result.problems.extend(gate.check_ingest(reference, partial, estimates))
    return result


def release_pass(plan, seconds: float, trace: bool, reference: dict) -> Pass:
    """Rounds of the fixed writer/analyst schedule, each on a fresh server.

    Rounds repeat until their schedules have run ``seconds`` in total.
    ``reference`` is the gate's reference for a round in which every
    write was acked.
    """
    result = Pass()
    names = _attribute_names(plan.spec)
    scheduled_s = 0.0
    rounds = 0
    while rounds == 0 or scheduled_s < seconds:
        server = _launch(result, plan.spec, train=True, trace=trace)
        clients = []
        try:
            if trace and rounds == 0:
                _floor_probes(result, server.port)
            writer_client = Client(server.port, f"r{rounds}w", result.ledger)
            analyst = Client(server.port, f"r{rounds}a", result.ledger)
            clients = [writer_client, analyst]
            acked, writer_s, round_s = _release_round(
                plan, names, server, writer_client, analyst, result
            )
            result.ingest_wall_s += writer_s
            scheduled_s += round_s
            _, partial = analyst.get("gate", "/partial", timed=False)
            _, model = analyst.get("gate", "/model", timed=False)
            _, rules = analyst.get("gate", "/rules", timed=False)
            _finish(result, server, clients)
        except BaseException:
            for client in clients:
                client.close()
            server.kill()
            raise
        expected = reference
        if len(acked) < len(plan.writes):
            expected = gate.release_reference(
                plan.spec, acked, bodies.MIN_SUPPORT, bodies.MIN_CONFIDENCE
            )
        result.problems.extend(gate.check_release(expected, partial, model, rules))
        rounds += 1
    for _ in range(max(0, SETUP_PROBES + 1 - rounds)):
        _launch(result, plan.spec, train=True, trace=trace).stop()
    return result


def _release_round(plan, names, server, writer_client, analyst, result):
    """One schedule: the writer streams, the analyst cycles at boundaries.

    The writer parks at each cycle boundary until that cycle's
    ``/train`` has returned, so every ``/train`` sees exactly the rows
    of the writes before its boundary, in every run and at any ingest
    speed.  The cycle's estimates and mining then run beside the
    writer's next bodies.
    """
    cycles = len(plan.boundaries)
    parked = [threading.Event() for _ in range(cycles)]
    released = [threading.Event() for _ in range(cycles)]
    acked = []
    times = {}

    def wait(event) -> None:
        if not event.wait(TIMEOUT_S):
            raise RuntimeError("release-mixed schedule stalled")

    def writer() -> None:
        index = 0
        for cycle, boundary in enumerate(plan.boundaries):
            while index < boundary:
                body = plan.writes[index]
                if writer_client.post_body(body):
                    acked.append(body)
                index += 1
            parked[cycle].set()
            wait(released[cycle])
        times["writer"] = time.perf_counter()

    def analyst_cycles() -> None:
        for cycle in range(cycles):
            wait(parked[cycle])
            analyst.post_json("train", "/train", {"strategy": "byclass"})
            result.train_rss_kb.append(server.status_kb("VmRSS"))
            released[cycle].set()
            for name in names:
                status, data = analyst.get(
                    "estimate", f"/estimate?attribute={name}"
                )
                if status == 200:
                    result.em_iterations.append(json.loads(data)["n_iterations"])
            analyst.post_json(
                "mine", "/mine",
                {
                    "min_support": bodies.MIN_SUPPORT,
                    "min_confidence": bodies.MIN_CONFIDENCE,
                },
            )

    start = time.perf_counter()
    _run_threads([writer, analyst_cycles])
    end = time.perf_counter()
    return acked, times["writer"] - start, end - start
