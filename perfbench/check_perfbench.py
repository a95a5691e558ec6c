"""The benchmark's own tests.

Run from the root of a checkout (the file name keeps them out of the
program's default test collection, because they start servers)::

    python3 -m pytest perfbench/check_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bodies  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SHORT_S = 0.5


@pytest.fixture
def quick(monkeypatch):
    """Short runs: no set-up probes beyond the working server."""
    monkeypatch.setattr(workloads, "SETUP_PROBES", 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_passes_its_gate(quick, workload):
    verdict, record = run.run(workload, seed=3, seconds=SHORT_S, trace=False)
    assert verdict["correct"], record["problems"]
    assert verdict["failed"] == 0
    assert verdict["attempted"] >= 1
    assert set(verdict["metrics"]) == {name for name, _ in run.END_TO_END}


def _payloads(workload: str, seed: int) -> list:
    if workload == "release-mixed":
        return [body.payload for body in bodies.release_plan(seed).writes]
    plan = bodies.ingest_plan(workload, seed)
    return [body.payload for pool in plan.pools for body in pool]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_bodies(workload):
    first = _payloads(workload, 7)
    assert first == _payloads(workload, 7)
    other = _payloads(workload, 8)
    assert len(other) == len(first)
    assert all(a != b for a, b in zip(first, other))


def test_tampered_ingest_reference_fails_the_gate(quick, monkeypatch):
    honest = gate.ingest_reference

    def tampered(spec, acked):
        acked = list(acked)
        body, count = acked[0]
        acked[0] = (body, count + 1)  # one ack the server never gave
        return honest(spec, acked)

    monkeypatch.setattr(gate, "ingest_reference", tampered)
    verdict, record = run.run(
        "ingest-small-quantized", seed=3, seconds=SHORT_S, trace=False
    )
    assert not verdict["correct"]
    assert "GET /partial differs from the reference partials" in record["problems"]


def test_tampered_release_reference_fails_the_gate(quick, monkeypatch):
    honest = gate.release_reference

    def tampered(spec, writes, min_support, min_confidence):
        # the writer's last body (baskets) goes missing from the reference
        return honest(spec, writes[:-1], min_support, min_confidence)

    monkeypatch.setattr(gate, "release_reference", tampered)
    verdict, record = run.run(
        "release-mixed", seed=3, seconds=SHORT_S, trace=False
    )
    assert not verdict["correct"]
    assert "GET /rules differs from the reference rule set" in record["problems"]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload",
            "ingest-small-quantized", "--seed", "5", "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    verdict = json.loads(out.stdout.splitlines()[-1])
    assert set(verdict) == {"correct", "attempted", "failed", "metrics"}
    assert verdict["correct"] and verdict["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in verdict["metrics"].items()
    } == declared


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "release-mixed",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
