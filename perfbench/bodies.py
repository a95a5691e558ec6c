"""Seeded inputs of the three workloads: specs and encoded request bodies.

Everything the server will see is built here, from ``--seed`` alone,
before any timing starts: the same seed gives byte-identical bodies.
Bodies are encoded with the public wire encoders (``encode_columns``,
``encode_quantized``, ``encode_baskets``, ``compress_payload``); each
:class:`Body` also keeps the values it encodes, so the in-process
reference can be fed the same disclosures without the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import quest
from repro.mining import RandomizedResponse, generate_baskets
from repro.service import (
    compress_payload,
    encode_baskets,
    encode_columns,
    encode_quantized,
    service_from_spec,
)
from repro.service.wire import CONTENT_TYPE_BASKETS, CONTENT_TYPE_COLUMNS

#: one client thread per connection; two threads keep the load generator
#: within the two cores of the host the figures in README.md come from
CONNECTIONS = 2

#: ingest workloads: four attributes on distinct domains (as in e26)
INGEST_SPEC = {
    "attributes": [
        {
            "name": f"a{j}",
            "low": float(10 * j),
            "high": float(10 * j + 8 + j),
            "noise": "uniform",
            "privacy": 1.0,
        }
        for j in range(4)
    ]
}

#: (records per body, distinct bodies per connection, codec, quantized)
INGEST_SHAPES = {
    "ingest-bulk-f64": (100_000, 3, "identity", False),
    "ingest-small-quantized": (100, 32, "zlib", True),
}

#: release-mixed: Quest Fn2 rows on all nine attributes (as in e22), a
#: 12-item MASK universe (as in e24), training and mining enabled
RELEASE_SPEC = {
    "classes": 2,
    "intervals": 25,
    "attributes": [
        {
            "name": attribute.name,
            "low": float(attribute.low),
            "high": float(attribute.high),
            "noise": "uniform",
            "privacy": 1.0,
        }
        for attribute in quest.ATTRIBUTES
    ],
    "mining": {"items": 12, "keep_prob": 0.9},
}
QUEST_FUNCTION = 2
ROWS_PER_BODY = 500
BASKETS_PER_BODY = 500
#: writer bodies per analyst cycle, in order: L = labeled rows, B = baskets
CYCLE_PATTERN = "LLBLLB"
CYCLES = 6
MIN_SUPPORT = 0.15
MIN_CONFIDENCE = 0.4


@dataclass(frozen=True)
class Body:
    """One request body as sent, plus the values it carries."""

    payload: bytes
    content_type: str
    codec: str
    records: int
    batch: dict | None = None  # float columns (reference input)
    labels: np.ndarray | None = None
    baskets: np.ndarray | None = None  # disclosed basket matrix


@dataclass(frozen=True)
class IngestPlan:
    spec: dict
    pools: tuple  # one tuple of Body per connection, sent round-robin


@dataclass(frozen=True)
class ReleasePlan:
    spec: dict
    writes: tuple  # the writer's bodies, in order
    boundaries: tuple  # writes after which the writer parks for cycle c


def _ingest_values(service, rng, n: int) -> dict:
    """One randomized batch: a clipped normal per attribute, then noise."""
    batch = {}
    for j, name in enumerate(service.attributes):
        partition = service.spec(name).x_partition
        low, high = partition.low, partition.high
        span = high - low
        center = low + span * (0.3 + 0.05 * j)
        x = np.clip(rng.normal(center, 0.15 * span, n), low, high)
        batch[name] = service.spec(name).randomizer.randomize(x, seed=rng)
    return batch


def ingest_plan(workload: str, seed: int) -> IngestPlan:
    records, per_connection, codec, quantized = INGEST_SHAPES[workload]
    service = service_from_spec(INGEST_SPEC)
    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(CONNECTIONS):
        pool = []
        for _ in range(per_connection):
            batch = _ingest_values(service, rng, records)
            if quantized:
                encoded = encode_quantized(service.quantize(batch))
            else:
                encoded = encode_columns(batch)
            pool.append(
                Body(
                    payload=compress_payload(encoded, codec),
                    content_type=CONTENT_TYPE_COLUMNS,
                    codec=codec,
                    records=records,
                    batch=batch,
                )
            )
        pools.append(tuple(pool))
    return IngestPlan(INGEST_SPEC, tuple(pools))


def release_plan(seed: int) -> ReleasePlan:
    service = service_from_spec(RELEASE_SPEC)
    names = service.attributes
    rng = np.random.default_rng(seed)
    n_labeled = CYCLE_PATTERN.count("L") * CYCLES
    n_basket = CYCLE_PATTERN.count("B") * CYCLES
    table = quest.generate(
        n_labeled * ROWS_PER_BODY, function=QUEST_FUNCTION, seed=rng
    )
    response = RandomizedResponse(RELEASE_SPEC["mining"]["keep_prob"])
    disclosed = response.randomize(
        generate_baskets(
            n_basket * BASKETS_PER_BODY, RELEASE_SPEC["mining"]["items"], seed=rng
        ),
        seed=rng,
    )
    columns = {
        name: service.spec(name).randomizer.randomize(
            table.column(name), seed=rng
        )
        for name in names
    }
    writes = []
    boundaries = []
    labeled = baskets = 0
    for _ in range(CYCLES):
        for kind in CYCLE_PATTERN:
            if kind == "L":
                rows = slice(labeled * ROWS_PER_BODY, (labeled + 1) * ROWS_PER_BODY)
                labeled += 1
                batch = {name: columns[name][rows] for name in names}
                labels = table.labels[rows]
                writes.append(
                    Body(
                        payload=encode_columns(batch, classes=labels),
                        content_type=CONTENT_TYPE_COLUMNS,
                        codec="identity",
                        records=labels.size,
                        batch=batch,
                        labels=labels,
                    )
                )
            else:
                chunk = disclosed[
                    baskets * BASKETS_PER_BODY:(baskets + 1) * BASKETS_PER_BODY
                ]
                baskets += 1
                writes.append(
                    Body(
                        payload=encode_baskets(chunk),
                        content_type=CONTENT_TYPE_BASKETS,
                        codec="identity",
                        records=len(chunk),
                        baskets=chunk,
                    )
                )
        boundaries.append(len(writes))
    return ReleasePlan(RELEASE_SPEC, tuple(writes), tuple(boundaries))
