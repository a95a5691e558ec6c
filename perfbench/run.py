"""The served-path benchmark: one workload, one seed, one JSON verdict.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest-small-quantized --seed 1 \\
        --seconds 10 --trace 0

The workload's bodies are built from ``--seed`` before any timing, a
real server process is started through the public API
(``launcher.py``), the closed-loop load runs for ``--seconds``, and
the served outputs are checked against an in-process reference.  The
last line of standard output is the verdict::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the same workload runs twice — untraced, then with span
recorders around every layer entry point — and the metrics are the
per-layer ones, including each end-to-end metric's tracing overhead
(traced minus untraced).  The line before the verdict is a
``perfbench {...}`` record of the host, the seed, the sample counts and
(traced ``release-mixed``) the ``/train`` cost curve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a run that has not finished by now is aborted without a verdict
TIME_LIMIT_S = 170

WORKLOADS = ("ingest-bulk-f64", "ingest-small-quantized", "release-mixed")

#: (name, unit) of the end-to-end metrics, every workload
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_records_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
)

#: (metric, span name) of the layers whose median per-request self time
#: is reported; "httpd.handle" is the request span's own self time
LAYER_SPANS = (
    ("httpd.handle_ms", "httpd.request"),
    ("wire.decompress_ms", "wire.decompress"),
    ("wire.decode_ms", "wire.decode"),
    ("shards.prepare_ms", "shards.prepare"),
    ("shards.absorb_ms", "shards.absorb"),
    ("service.estimate_ms", "service.estimate"),
    ("training.prepare_rows_ms", "training.prepare_rows"),
    ("training.absorb_rows_ms", "training.absorb_rows"),
    ("training.train_ms", "training.train"),
    ("mining.prepare_ms", "mining.prepare"),
    ("mining.absorb_ms", "mining.absorb"),
    ("mining.mine_ms", "mining.mine"),
)

#: unit of every metric the benchmark can print
UNITS = {
    **dict(END_TO_END),
    "httpd.floor_ms": "ms",
    "httpd.self_ms": "ms",
    **{metric: "ms" for metric, _ in LAYER_SPANS},
    "wire.bytes_per_record": "bytes",
    "engine.em_iterations": "count",
    "training.buffered_rows": "rows",
    "httpd.requests": "count",
    "httpd.failed": "count",
    "failed_ops_ratio": "ratio",
    "estimate_p50_ms": "ms",
    "estimate_p90_ms": "ms",
    "train_p50_ms": "ms",
    "mine_p50_ms": "ms",
    "ingest.samples": "count",
    "estimate.samples": "count",
    "train.samples": "count",
    "mine.samples": "count",
    **{f"overhead.{name}": unit for name, unit in END_TO_END},
}


def _usable_checkout() -> bool:
    return (ROOT / "src" / "repro" / "service" / "__init__.py").is_file()


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(result) -> dict:
    ingest = result.ledger.timed("ingest")
    latencies = [op.latency_s * 1e3 for op in ingest]
    return {
        "setup_s": statistics.median(result.setup_s),
        "ingest_records_per_s": sum(op.records for op in ingest)
        / result.ingest_wall_s,
        "ingest_p50_ms": _percentile(latencies, 50),
        "ingest_p90_ms": _percentile(latencies, 90),
        "server_peak_rss_mb": statistics.median(result.peak_rss_kb) / 1024,
    }


def analyst_metrics(result) -> dict:
    """Analyst latencies (0 off release-mixed), sample counts, failures."""
    out = {}
    for kind in ("estimate", "train", "mine"):
        latencies = [op.latency_s * 1e3 for op in result.ledger.timed(kind)]
        out[f"{kind}_p50_ms"] = _percentile(latencies, 50)
        if kind == "estimate":
            out["estimate_p90_ms"] = _percentile(latencies, 90)
        out[f"{kind}.samples"] = len(latencies)
    out["ingest.samples"] = len(result.ledger.timed("ingest"))
    ops = result.ledger.ops
    out["failed_ops_ratio"] = sum(not op.ok for op in ops) / len(ops)
    return out


def layer_metrics(result, bytes_per_record: float) -> dict:
    """Per-layer numbers of a traced pass."""
    ingest_ids = {op.request_id: op for op in result.ledger.timed("ingest")}
    requests = [s for s in result.spans if s[3] == spans.REQUEST_SPAN]
    ingest_requests = {
        s[0] for s in requests if s[6].get("id") in ingest_ids
    }
    # self time per layer, summed within each timed ingest request, or
    # within each request of the route that owns the layer
    summary = spans.layer_summary(result.spans)
    ingest_summary = spans.layer_summary(
        result.spans, requests=ingest_requests
    )
    out = {}
    for metric, name in LAYER_SPANS:
        source = ingest_summary if name in ingest_summary else summary
        out[metric] = source.get(name, {}).get("median_ms", 0.0)
    outside = [
        ingest_ids[s[6]["id"]].latency_s * 1e3 - (s[5] - s[4]) / 1e6
        for s in requests
        if s[0] in ingest_requests
    ]
    out["httpd.self_ms"] = statistics.median(outside) if outside else 0.0
    floor = [op.latency_s * 1e3 for op in result.ledger.ops if op.kind == "healthz"]
    out["httpd.floor_ms"] = statistics.median(floor)
    out["httpd.requests"] = len(requests)
    out["httpd.failed"] = sum(
        not 200 <= s[6].get("status", 0) < 300 for s in requests
    )
    out["wire.bytes_per_record"] = bytes_per_record
    out["engine.em_iterations"] = (
        statistics.median(result.em_iterations) if result.em_iterations else 0
    )
    trains = sorted(
        (s for s in result.spans if s[3] == "training.train"), key=lambda s: s[4]
    )
    out["training.buffered_rows"] = max(
        (s[6]["buffered_rows"] for s in trains), default=0
    )
    return out


def train_curve(result) -> list:
    """``/train`` cost and server RSS against buffered rows (medians).

    Each round of the schedule trains at the same buffer sizes, so the
    steps of all rounds are grouped by ``training.buffered_rows``.
    """
    trains = sorted(
        (s for s in result.spans if s[3] == "training.train"), key=lambda s: s[4]
    )
    steps: dict = {}
    for span, rss_kb in zip(trains, result.train_rss_kb):
        step = steps.setdefault(span[6]["buffered_rows"], ([], []))
        step[0].append((span[5] - span[4]) / 1e6)
        step[1].append(rss_kb / 1024)
    return [
        {
            "buffered_rows": rows,
            "train_ms": statistics.median(train_ms),
            "server_rss_mb": statistics.median(rss_mb),
            "samples": len(train_ms),
        }
        for rows, (train_ms, rss_mb) in sorted(steps.items())
    ]


def host_info() -> dict:
    """What a speed claim must name about the machine that made it."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over ``src/`` — identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; return ``(verdict, record)``."""
    import bodies
    import gate
    import workloads

    if workload == "release-mixed":
        plan = bodies.release_plan(seed)
        # every round sends the same writes: one reference serves all
        # rounds in which every write was acked
        reference = gate.release_reference(
            plan.spec, plan.writes, bodies.MIN_SUPPORT, bodies.MIN_CONFIDENCE
        )

        def measure(traced: bool):
            return workloads.release_pass(plan, seconds, traced, reference)

        sent = plan.writes
    else:
        plan = bodies.ingest_plan(workload, seed)

        def measure(traced: bool):
            return workloads.ingest_pass(plan, seconds, traced)

        sent = [body for pool in plan.pools for body in pool]
    bytes_per_record = sum(len(b.payload) for b in sent) / sum(
        b.records for b in sent
    )

    passes = [measure(False)]
    if trace:
        passes.append(measure(True))
    untraced = passes[0]
    e2e = end_to_end(untraced)
    if trace:
        traced = passes[1]
        metrics = layer_metrics(traced, bytes_per_record)
        metrics.update(analyst_metrics(untraced))
        traced_e2e = end_to_end(traced)
        for name, _unit in END_TO_END:
            metrics[f"overhead.{name}"] = traced_e2e[name] - e2e[name]
    else:
        metrics = e2e

    problems = [p for result in passes for p in result.problems]
    ops = [op for result in passes for op in result.ledger.ops]
    verdict = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_info(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "problems": problems,
        "end_to_end": e2e,
        "samples": analyst_metrics(untraced),
    }
    if trace:
        record["layers"] = dict(
            sorted(spans.layer_summary(passes[1].spans).items())
        )
        record["train_curve"] = train_curve(passes[1])
    return verdict, record


def _time_limit(signum, frame):
    raise RuntimeError(f"run exceeded its {TIME_LIMIT_S} s time limit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _usable_checkout():
        print(
            f"error: {ROOT} holds no program source (src/repro); run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # a stuck server or socket must not outlive the run's time limit:
    # the alarm raises in the main thread, whose handlers kill servers
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(TIME_LIMIT_S)
    verdict, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)
    print("perfbench " + json.dumps(record), flush=True)
    print(json.dumps(verdict), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
