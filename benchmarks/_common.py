"""Shared helpers for the benchmark harness.

Every benchmark registers one paper experiment with the
:mod:`repro.bench` registry: a ``run_e*(ctx)`` function decorated with
``@experiment(...)`` that returns a flat dict of deterministic metrics,
renders its ASCII tables through ``ctx.report`` (persisted under
``benchmarks/results/``), and asserts the paper's qualitative *shape* so
a silent regression fails both the pytest run and ``ppdm bench run``.

The ``test_*`` wrappers in each file execute the same registered body
under pytest-benchmark timing via :func:`run_experiment`, so ``pytest
benchmarks/bench_e*.py`` and ``ppdm bench run`` exercise identical code.

Dataset sizes honour ``PPDM_BENCH_SCALE`` (1.0 = laptop default,
10 = the paper's scale) via ``ctx.scaled``.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from repro.bench import REGISTRY, ExperimentContext
from repro.bench.registry import experiment  # noqa: F401  (re-exported decorator)

warnings.filterwarnings("ignore", category=UserWarning, module="repro")

RESULTS_DIR = Path(__file__).parent / "results"


def make_context(experiment_id: str, *, verbose: bool = True) -> ExperimentContext:
    """A pytest-side context on the experiment's canonical seed.

    The committed tables under ``benchmarks/results/`` are reference
    views at scale 1; an off-scale run (``PPDM_BENCH_SCALE``) keeps its
    tables in memory instead of overwriting them.
    """
    from repro.experiments.config import bench_scale

    spec = REGISTRY.get(experiment_id)
    results_dir = RESULTS_DIR if bench_scale() == 1.0 else None
    return ExperimentContext(
        spec.id, spec.seed, results_dir=results_dir, verbose=verbose
    )


def run_experiment(benchmark, experiment_id: str) -> dict:
    """Run a registered experiment once under pytest-benchmark timing.

    Its wall-clock asserts are enforced here, as ``ppdm bench run`` does.
    """
    spec = REGISTRY.get(experiment_id)
    ctx = make_context(experiment_id)
    metrics = once(benchmark, lambda: spec.fn(ctx))
    ctx.check_timing()
    return metrics


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
