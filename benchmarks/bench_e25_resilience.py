"""E25 — Ingest under a seeded fault schedule, and crash recovery cost.

The resilience contract of the serving tier is that faults change
*timing*, never *results*: an injected 5xx is sent before any byte of
the body is absorbed, so the client's verbatim re-send cannot
double-count, and a snapshot is written atomically (tmp + fsync +
rename, integrity digest) so a crash always recovers the newest valid
generation.  This benchmark prices both halves of that contract on one
real HTTP server:

* **fault-free leg** — pre-encoded columnar batches over a keep-alive
  connection (the e21 fast path), one final reconstruction;
* **chaos leg** — identical batches against a server running a seeded
  :class:`~repro.service.faults.FaultPlan` that turns a fixed fraction
  of ``/ingest`` responses into 503s; the client re-sends until
  acknowledged (the schedule, and hence the retry count, is a pure
  function of the seed);
* **recovery leg** — persist the ingested service (timed), then restore
  it with :func:`~repro.service.resilience.recover_service` (timed) —
  the window a crashed server stays dark before serving again.

Asserted:

* the chaos leg's estimate is **bit-identical** to the fault-free leg's
  and to a single-process reference (refreshed once each), and so is
  the estimate of the recovered service;
* chaos-leg throughput stays within an architectural floor of the
  fault-free rate — retries cost the injected fraction, not an
  order of magnitude.
"""

from __future__ import annotations

import http.client
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from _common import experiment, run_experiment

from repro.service import ServiceHTTPServer, service_from_spec
from repro.service.faults import FaultPlan
from repro.service.resilience import recover_service
from repro.service.wire import CONTENT_TYPE_COLUMNS, encode_columns
from repro.utils.rng import ensure_rng

N_BATCHES = 32
ERROR_RATE = 0.15

SPEC = {
    "shards": 1,
    "intervals": 16,
    "attributes": [
        {"name": "age", "low": 20.0, "high": 80.0,
         "noise": "uniform", "privacy": 1.0},
    ],
}


def _throughput_floor_scale() -> float:
    """Scales the wall-clock throughput threshold (parity asserts are
    unaffected).  Shared CI runners set this below 1 so a noisy neighbour
    cannot flake the build while a real regression still fails."""
    return float(os.environ.get("PPDM_E25_THROUGHPUT_FLOOR", "1.0"))


def _disclosures(n_records: int, seed: int):
    """Pre-generated randomized batches shared by every leg."""
    rng = ensure_rng(seed)
    reference = service_from_spec(dict(SPEC))
    spec = reference.spec("age")
    low, high = spec.x_partition.low, spec.x_partition.high
    per_batch = n_records // N_BATCHES
    batches = []
    for _ in range(N_BATCHES):
        x = np.clip(rng.normal(45.0, 9.0, per_batch), low, high)
        batches.append({"age": spec.randomizer.randomize(x, seed=rng)})
    return batches


def _serve(service, *, faults=None, snapshot_path=None):
    """A serving thread around ``service``; returns (server, thread)."""
    server = ServiceHTTPServer(
        service, "127.0.0.1", 0,
        faults=faults, snapshot_path=snapshot_path,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _ingest_all(server, bodies) -> tuple:
    """POST every body until acknowledged; return (seconds, re-sends).

    An injected 503 is sent before the body is absorbed, so the loop
    re-sends the identical bytes — the admission contract makes that
    safe, and the final counts are exactly one copy of every batch.
    """
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    resent = 0
    start = time.perf_counter()
    for body in bodies:
        while True:
            conn.request(
                "POST", "/ingest", body=body,
                headers={"Content-Type": CONTENT_TYPE_COLUMNS},
            )
            response = conn.getresponse()
            payload = response.read()
            if response.status == 200:
                break
            assert response.status == 503, payload
            resent += 1
    seconds = time.perf_counter() - start
    conn.close()
    return seconds, resent


def _estimate_over_http(server) -> dict:
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.request("GET", "/estimate?attribute=age")
    response = conn.getresponse()
    payload = response.read()
    conn.close()
    assert response.status == 200, payload
    return json.loads(payload)


def _assert_parity(estimate: dict, expected, n_records: int) -> None:
    assert estimate["n_seen"] == n_records
    assert estimate["n_iterations"] == expected.n_iterations
    assert np.array_equal(
        np.asarray(estimate["probs"]), expected.distribution.probs
    )


@experiment(
    "e25",
    title="Ingest under faults + crash recovery cost",
    tags=("service", "resilience", "smoke"),
    seed=11,
)
def run_e25(ctx):
    n_records = ctx.scaled(32_000)
    batches = _disclosures(n_records, seed=ctx.seed)
    n_records = sum(batch["age"].size for batch in batches)
    bodies = [encode_columns(batch) for batch in batches]
    plan_spec = {
        "seed": ctx.seed,
        "points": {"httpd.response:/ingest": {"error": ERROR_RATE}},
    }
    ctx.record(
        n_records=n_records,
        n_batches=N_BATCHES,
        error_rate=ERROR_RATE,
        noise="uniform",
    )

    reference = service_from_spec(dict(SPEC))
    for batch in batches:
        reference.ingest(batch)
    expected = reference.estimate("age", warn=False)

    # fault-free leg (snapshot path attached for the recovery leg)
    tmp = Path(tempfile.mkdtemp(prefix="ppdm-e25-"))
    snapshot_path = tmp / "snapshot.json"
    clean_server, clean_thread = _serve(
        service_from_spec(dict(SPEC)), snapshot_path=str(snapshot_path)
    )
    try:
        clean_seconds, clean_resent = _ingest_all(clean_server, bodies)
        assert clean_resent == 0
        # persist before the estimate so the snapshot carries a cold
        # warm-start state and the recovered service replays the same
        # single refresh as the reference
        persist_start = time.perf_counter()
        clean_server.persist()
        persist_seconds = time.perf_counter() - persist_start
        _assert_parity(_estimate_over_http(clean_server), expected, n_records)
    finally:
        clean_server.shutdown()
        clean_thread.join(timeout=10)

    # chaos leg: same bytes, seeded 503 schedule, re-send until taken
    plan = FaultPlan(plan_spec)
    chaos_server, chaos_thread = _serve(
        service_from_spec(dict(SPEC)), faults=plan
    )
    try:
        chaos_seconds, chaos_resent = _ingest_all(chaos_server, bodies)
        injected = plan.stats()["httpd.response:/ingest"]["fired"]
        assert chaos_resent == injected and injected > 0
        _assert_parity(_estimate_over_http(chaos_server), expected, n_records)
    finally:
        chaos_server.shutdown()
        chaos_thread.join(timeout=10)

    # recovery leg: restore the newest valid generation, then estimate
    recover_start = time.perf_counter()
    recovered, recovered_from = recover_service(snapshot_path)
    recover_seconds = time.perf_counter() - recover_start
    assert recovered_from == snapshot_path
    assert sum(recovered.n_seen().values()) == n_records
    result = recovered.estimate("age", warn=False)
    assert result.n_iterations == expected.n_iterations
    assert np.array_equal(
        result.distribution.probs, expected.distribution.probs
    )

    clean_rate = n_records / clean_seconds
    chaos_rate = n_records / chaos_seconds
    ratio = chaos_rate / clean_rate

    from repro.experiments.reporting import format_table

    table_text = format_table(
        ("leg", "wall ms", "records/s", "re-sends", "vs fault-free"),
        [
            ("fault-free", f"{clean_seconds * 1e3:.1f}",
             f"{clean_rate:,.0f}", "0", "1.00x"),
            (f"seeded 503s ({ERROR_RATE:.0%})", f"{chaos_seconds * 1e3:.1f}",
             f"{chaos_rate:,.0f}", str(chaos_resent), f"{ratio:.2f}x"),
        ],
        title=(
            f"E25: ingest under a seeded fault schedule, "
            f"{n_records} records x {N_BATCHES} batches over HTTP"
        ),
    )
    summary = (
        f"\nsnapshot persist = {persist_seconds * 1e3:.1f} ms, "
        f"recovery (load + verify) = {recover_seconds * 1e3:.1f} ms"
        f"\nestimates bit-identical across fault-free, chaos, and "
        f"recovered runs ({injected} injected 503s, schedule seeded)"
    )
    ctx.report(table_text + summary, name="e25_resilience")
    ctx.record_timing(
        clean_ms=clean_seconds * 1e3,
        chaos_ms=chaos_seconds * 1e3,
        persist_ms=persist_seconds * 1e3,
        recover_ms=recover_seconds * 1e3,
        chaos_vs_clean=ratio,
    )

    floor = 0.3 * _throughput_floor_scale()
    ctx.timing_assert(
        ratio >= floor,
        f"chaos-leg throughput {ratio:.2f}x of fault-free is below the "
        f"{floor:.2f}x floor",
    )

    return {
        "bit_identical": True,
        "injected_errors": injected,
        "n_records": n_records,
        "recovered_records": n_records,
    }


def test_e25_resilience(benchmark):
    run_experiment(benchmark, "e25")
