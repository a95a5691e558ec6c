"""The correctness gate: served outputs against an in-process reference.

The reference is built from the same spec through the same public API
and fed the *values* the acknowledged bodies carry (float columns, even
where the wire carried quantized bin indices; disclosed basket
matrices), never the wire bytes.  Every comparison is exact: partial
sync bodies byte for byte, estimates float for float, trees with
``identical_to``, rule sets itemset for itemset.
"""

from __future__ import annotations

import json

from repro.serialize import from_jsonable
from repro.service import (
    TrainingService,
    export_sync_body,
    mining_from_spec,
    service_from_spec,
)


def ingest_reference(spec: dict, acked) -> object:
    """An :class:`AggregationService` fed ``(body, times_acked)`` pairs."""
    service = service_from_spec(spec)
    for body, count in acked:
        if count:
            prepared = service.prepare(body.batch)
            for _ in range(count):
                service.ingest_prepared(prepared)
    return service


def release_reference(spec: dict, bodies, min_support, min_confidence) -> dict:
    """Train and mine in process over the bodies the writer got acked."""
    service = service_from_spec(spec)
    training = TrainingService(service)
    mining = mining_from_spec(spec["mining"])
    for body in bodies:
        if body.baskets is not None:
            mining.ingest(body.baskets)
        else:
            training.ingest(body.batch, body.labels)
    return {
        "partial": export_sync_body(service),
        "model": training.train("byclass"),
        "rules": mining.mine(min_support, min_confidence),
    }


def estimate_payload(service, name: str) -> dict:
    """The fields of ``GET /estimate`` that must match bit for bit."""
    result = service.estimate(name, warn=False)
    return {
        "probs": result.distribution.probs.tolist(),
        "n_iterations": result.n_iterations,
        "converged": result.converged,
    }


def check_ingest(reference, partial: bytes, estimates: dict) -> list:
    """Mismatches between a served ingest run and its reference."""
    problems = []
    if partial != export_sync_body(reference):
        problems.append("GET /partial differs from the reference partials")
    for name in reference.attributes:
        served = json.loads(estimates[name])
        expected = estimate_payload(reference, name)
        got = {key: served[key] for key in expected}
        if got != expected:
            problems.append(f"GET /estimate?attribute={name} differs")
    return problems


def _canonical_rules(rules) -> list:
    return sorted(
        (sorted(r.antecedent), sorted(r.consequent), r.support, r.confidence,
         r.lift)
        for r in rules
    )


def check_release(reference: dict, partial: bytes, model: bytes, rules: bytes):
    """Mismatches between a served release-mixed round and its reference."""
    problems = []
    if partial != reference["partial"]:
        problems.append("GET /partial differs from the reference partials")
    served_model = from_jsonable(json.loads(model))
    expected_model = reference["model"]
    if not (
        served_model.strategy == expected_model.strategy
        and served_model.n_train == expected_model.n_train
        and served_model.tree.identical_to(expected_model.tree)
    ):
        problems.append("GET /model differs from the reference tree")
    served_rules = from_jsonable(json.loads(rules))
    expected_rules = reference["rules"]
    if served_rules.itemsets != expected_rules.itemsets or _canonical_rules(
        served_rules.rules
    ) != _canonical_rules(expected_rules.rules):
        problems.append("GET /rules differs from the reference rule set")
    return problems
