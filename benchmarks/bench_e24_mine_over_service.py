"""E24 — Association-rule mining over the live service vs the offline path.

PR 8 promoted the E12 extension to a service workload: MASK-randomized
baskets stream into sharded support counters (version 4 basket frames
over the wire) and ``MiningService`` runs level-wise Apriori with
channel inversion over the service-held counts.  This benchmark is the
parity + latency anchor for that path, the mining twin of E22:

Asserted, at 1 and 4 shards:

* the service-mined frequent itemsets — items *and* estimated supports —
  are **bit-identical** to the offline
  ``MaskMiner.frequent_itemsets`` on the same randomized baskets,
* the derived rule set (antecedent, consequent, support, confidence,
  lift) matches ``association_rules`` on the offline itemsets exactly,
* the planted patterns ``{0,1}`` and ``{2,3,4}`` are re-discovered.

Measured: batched ingest wall time into the support shards and the
mine-after-ingest latency (merge + marginalize + invert + rules), per
shard count.
"""

from __future__ import annotations

import os
import time

import numpy as np
from _common import experiment, run_experiment

from repro.experiments import format_table
from repro.mining import (
    MaskMiner,
    RandomizedResponse,
    association_rules,
    generate_baskets,
)
from repro.service import MiningService

N_ITEMS = 12
KEEP_PROB = 0.9
MIN_SUPPORT = 0.15
MIN_CONFIDENCE = 0.4
SHARD_COUNTS = (1, 4)
N_BATCHES = 64


def _latency_floor_scale() -> float:
    """Scales the wall-clock latency thresholds (parity asserts are
    unaffected).  Shared CI runners set this below 1 so a noisy
    neighbour cannot flake the build while a real regression still
    fails."""
    return float(os.environ.get("PPDM_E24_LATENCY_FLOOR", "1.0"))


def _canonical(rule):
    return (sorted(rule.antecedent), sorted(rule.consequent))


def _service_mine(disclosed, n_shards: int):
    """Batched ingest into the support shards, then one mine pass."""
    service = MiningService(
        RandomizedResponse(KEEP_PROB), N_ITEMS, n_shards=n_shards
    )
    batches = [
        chunk for chunk in np.array_split(disclosed, N_BATCHES) if len(chunk)
    ]
    start = time.perf_counter()
    for batch in batches:
        service.ingest(batch)
    ingest_seconds = time.perf_counter() - start
    result = service.mine(MIN_SUPPORT, MIN_CONFIDENCE)
    return result, ingest_seconds


@experiment(
    "e24",
    title="Association mining over the live service (parity + latency)",
    tags=("service", "mining", "smoke"),
    seed=2400,
)
def run_e24(ctx):
    n = ctx.scaled(20_000)
    ctx.record(
        n=n,
        n_items=N_ITEMS,
        keep_prob=KEEP_PROB,
        min_support=MIN_SUPPORT,
        min_confidence=MIN_CONFIDENCE,
    )
    baskets = generate_baskets(n, N_ITEMS, seed=ctx.seed)
    response = RandomizedResponse(KEEP_PROB)
    disclosed = response.randomize(baskets, seed=ctx.seed + 1)

    start = time.perf_counter()
    offline_sets = MaskMiner(response).frequent_itemsets(disclosed, MIN_SUPPORT)
    offline_rules = association_rules(offline_sets, MIN_CONFIDENCE)
    offline_seconds = time.perf_counter() - start
    assert frozenset({0, 1}) in offline_sets
    assert frozenset({2, 3, 4}) in offline_sets

    scale = _latency_floor_scale()
    rows = []
    timing = {"offline_mine_ms": offline_seconds * 1e3}
    metrics = {
        "n_itemsets": len(offline_sets),
        "n_rules": len(offline_rules),
    }
    for n_shards in SHARD_COUNTS:
        result, ingest_seconds = _service_mine(disclosed, n_shards)
        assert result.itemsets == offline_sets, (
            f"service itemsets at {n_shards} shard(s) are not bit-identical "
            "to the offline MaskMiner lattice"
        )
        assert sorted(result.rules, key=_canonical) == sorted(
            offline_rules, key=_canonical
        ), f"service rules diverge at {n_shards} shard(s)"
        assert result.n_baskets == n
        # mine-after-ingest latency is O(2^n_items), independent of n —
        # it must stay far below re-mining the full basket matrix
        ctx.timing_assert(
            result.mine_seconds < max(offline_seconds * 5, 2.0) / scale,
            f"mine-after-ingest took {result.mine_seconds:.3f}s at "
            f"{n_shards} shard(s)",
        )
        rows.append(
            (
                str(n_shards),
                str(n),
                str(len(result.itemsets)),
                str(len(result.rules)),
                f"{ingest_seconds * 1e3:.1f}",
                f"{result.mine_seconds * 1e3:.1f}",
                "yes",
            )
        )
        timing[f"{n_shards}_shards_ingest_ms"] = ingest_seconds * 1e3
        timing[f"{n_shards}_shards_mine_ms"] = result.mine_seconds * 1e3

    table = format_table(
        (
            "shards", "baskets", "itemsets", "rules",
            "ingest ms", "mine ms", "bit-identical",
        ),
        rows,
        title=(
            f"E24: mine-over-service parity and latency, {n} baskets x "
            f"{N_ITEMS} items, keep_prob {KEEP_PROB:g}"
        ),
    )
    summary = (
        "\nevery service-mined rule set (itemsets, supports, confidences) "
        "is bit-identical to the offline MaskMiner + association_rules "
        "pipeline on the same randomized baskets"
    )
    ctx.report(table + summary, name="e24_mine_over_service")
    ctx.record_timing(**timing)

    return {"bit_identical": True, **metrics}


def test_e24_mine_over_service(benchmark):
    run_experiment(benchmark, "e24")
