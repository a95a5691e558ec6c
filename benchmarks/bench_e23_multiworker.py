"""E23 — Multi-worker cluster ingest throughput vs eager single-worker serving.

``ppdm serve --workers N`` splits the paper's server across processes:
workers absorb randomized disclosures on their own ports, and the
coordinator answers ``/estimate`` over the union by pulling each
worker's O(bins) cumulative partial frame.  Because histogram counts
are exact integers in float64, the coordinator's merged union is
bit-identical to one process fed the same records — scale-out changes
the topology, never the math.

This benchmark drives real spawned clusters over HTTP and compares two
serving disciplines on identical pre-encoded columnar bodies:

* **eager, 1 worker** — the analyst queries after *every* batch, so
  each batch pays a partial pull plus warm-started Bayes sweeps per
  attribute (the refresh-per-batch baseline of e20, now over the wire);
* **deferred, 1/2/4 workers** — batches fan out round-robin to the
  workers and the coordinator reconstructs once at the end.

Asserted:

* coordinator estimates are **bit-identical** to a single-process
  service fed the same disclosures and refreshed at the same points
  (eager leg: refresh per batch; deferred legs: one final refresh), and
* the 4-worker deferred cluster ingests at >= 2x the eager leg's rate.

On a single core the worker counts roughly tie (processes compete for
the same CPU; scale-out is about using *more machines*, which a CI
runner does not have) — the asserted >= 2x win is architectural:
deferred O(bins) partial merges instead of per-batch reconstruction
sweeps.  The deferred 4-vs-1-worker ratio is recorded as an
informational metric without a floor.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from urllib.parse import urlparse

import numpy as np
from _common import experiment, run_experiment

from repro.service import service_from_spec
from repro.service.cluster import start_cluster
from repro.service.wire import CONTENT_TYPE_COLUMNS, encode_columns
from repro.utils.rng import ensure_rng

N_ATTRIBUTES = 2
N_BATCHES = 48
WORKER_COUNTS = (1, 2, 4)

SPEC = {
    "shards": 1,
    "intervals": 16,
    "attributes": [
        {"name": f"a{j}", "low": float(10 * j), "high": float(10 * j + 8 + j),
         "noise": "uniform", "privacy": 1.0}
        for j in range(N_ATTRIBUTES)
    ],
}


def _throughput_floor_scale() -> float:
    """Scales the wall-clock throughput threshold (parity asserts are
    unaffected).  Shared CI runners set this below 1 so a noisy neighbour
    cannot flake the build while a real regression still fails."""
    return float(os.environ.get("PPDM_E23_THROUGHPUT_FLOOR", "1.0"))


def _reference_service():
    """A single-process service built from the same deployment spec."""
    return service_from_spec(dict(SPEC))


def _disclosures(n_per_attribute: int, seed: int):
    """Pre-generated randomized batches: ``batches[b][name] -> values``."""
    rng = ensure_rng(seed)
    reference = _reference_service()
    per_batch = n_per_attribute // N_BATCHES
    batches = []
    for _ in range(N_BATCHES):
        batch = {}
        for name in reference.attributes:
            spec = reference.spec(name)
            low, high = spec.x_partition.low, spec.x_partition.high
            span = high - low
            center = low + span * 0.35
            x = np.clip(rng.normal(center, 0.15 * span, per_batch), low, high)
            batch[name] = spec.randomizer.randomize(x, seed=rng)
        batches.append(batch)
    return batches


class _Client:
    """One keep-alive HTTP connection to a cluster node."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=60
        )

    def post_columns(self, body: bytes) -> None:
        self.conn.request(
            "POST", "/ingest", body=body,
            headers={"Content-Type": CONTENT_TYPE_COLUMNS},
        )
        response = self.conn.getresponse()
        payload = response.read()
        assert response.status == 200, payload

    def get_estimate(self, name: str) -> dict:
        self.conn.request("GET", f"/estimate?attribute={name}")
        response = self.conn.getresponse()
        payload = response.read()
        assert response.status == 200, payload
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


def _run_cluster(bodies, names, n_workers: int, *, eager: bool) -> tuple:
    """Ingest every body over HTTP; return (seconds, final estimates)."""
    supervisor = start_cluster(SPEC, n_workers=n_workers, sync_interval=3600.0)
    try:
        supervisor.wait_ready(timeout=120.0)
        workers = [_Client(url) for url in supervisor.worker_urls()]
        coordinator = _Client(supervisor.url)
        start = time.perf_counter()
        for index, body in enumerate(bodies):
            workers[index % n_workers].post_columns(body)
            if eager:
                for name in names:
                    coordinator.get_estimate(name)
        estimates = {name: coordinator.get_estimate(name) for name in names}
        seconds = time.perf_counter() - start
        for client in workers:
            client.close()
        coordinator.close()
    finally:
        supervisor.shutdown()
    return seconds, estimates


def _reference_estimates(batches, *, eager: bool) -> dict:
    """Single-process estimates refreshed at the same points as the leg."""
    service = _reference_service()
    for batch in batches:
        service.ingest(batch)
        if eager:
            for name in service.attributes:
                service.estimate(name, warn=False)
    return {
        name: service.estimate(name, warn=False)
        for name in service.attributes
    }


def _assert_parity(reference, estimates, n_records_per_attribute) -> None:
    """Coordinator estimates must be bitwise the single-process ones."""
    for name, expected in reference.items():
        result = estimates[name]
        assert result["n_seen"] == n_records_per_attribute, name
        assert result["n_iterations"] == expected.n_iterations, name
        assert np.array_equal(
            np.asarray(result["probs"]), expected.distribution.probs
        ), name


@experiment(
    "e23",
    title="Multi-worker cluster ingest throughput",
    tags=("service", "cluster", "smoke"),
    seed=7,
)
def run_e23(ctx):
    n_per_attribute = ctx.scaled(48_000)
    batches = _disclosures(n_per_attribute, seed=ctx.seed)
    names = tuple(batches[0])
    n_records = sum(batch[name].size for batch in batches for name in names)
    per_attribute = n_records // N_ATTRIBUTES
    bodies = [encode_columns(batch) for batch in batches]
    ctx.record(
        n_records=n_records,
        n_attributes=N_ATTRIBUTES,
        n_batches=N_BATCHES,
        worker_counts="/".join(str(w) for w in WORKER_COUNTS),
        noise="uniform",
    )

    eager_reference = _reference_estimates(batches, eager=True)
    deferred_reference = _reference_estimates(batches, eager=False)

    eager_seconds, estimates = _run_cluster(bodies, names, 1, eager=True)
    _assert_parity(eager_reference, estimates, per_attribute)

    deferred_seconds = {}
    for n_workers in WORKER_COUNTS:
        seconds, estimates = _run_cluster(
            bodies, names, n_workers, eager=False
        )
        _assert_parity(deferred_reference, estimates, per_attribute)
        deferred_seconds[n_workers] = seconds

    eager_rate = n_records / eager_seconds
    rows = [
        (
            "eager (estimate/batch)",
            "1",
            f"{eager_seconds * 1e3:.1f}",
            f"{eager_rate:,.0f}",
            "1.00x",
        )
    ]
    for n_workers in WORKER_COUNTS:
        rate = n_records / deferred_seconds[n_workers]
        rows.append(
            (
                "deferred (final estimate)",
                str(n_workers),
                f"{deferred_seconds[n_workers] * 1e3:.1f}",
                f"{rate:,.0f}",
                f"{rate / eager_rate:.2f}x",
            )
        )
    speedup = (n_records / deferred_seconds[4]) / eager_rate
    scaleout = deferred_seconds[1] / deferred_seconds[4]

    from repro.experiments.reporting import format_table

    table_text = format_table(
        ("serving discipline", "workers", "wall ms", "records/s", "vs eager"),
        rows,
        title=(
            f"E23: cluster ingest over HTTP, {N_ATTRIBUTES} attributes x "
            f"{n_per_attribute} records, spawned worker processes"
        ),
    )
    summary = (
        f"\n4-worker deferred speedup vs eager 1-worker serving = "
        f"{speedup:.2f}x"
        f"\ndeferred 4-vs-1-worker ratio = {scaleout:.2f}x "
        f"(informational; CI runs on one core)"
        f"\ncoordinator estimates bit-identical to a single process fed "
        f"the same disclosures at every worker count"
    )
    ctx.report(table_text + summary, name="e23_multiworker")
    ctx.record_timing(
        eager_1_worker_ms=eager_seconds * 1e3,
        speedup_4_workers=speedup,
        scaleout_4_vs_1=scaleout,
        **{
            f"deferred_{k}_workers_ms": v * 1e3
            for k, v in deferred_seconds.items()
        },
    )

    floor = 2.0 * _throughput_floor_scale()
    ctx.timing_assert(
        speedup >= floor, f"expected >= {floor:.2f}x, got {speedup:.2f}x"
    )

    return {
        "bit_identical": True,
        "n_worker_processes_max": max(WORKER_COUNTS),
        "records_per_attribute": per_attribute,
    }


def test_e23_multiworker(benchmark):
    run_experiment(benchmark, "e23")
