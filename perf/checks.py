"""Correctness checks.  A failed check counts into the run's ``failed`` ops.

Host failures (a query or campaign point that raised, was quarantined, or
fails a check here) are kept apart from modelled outcomes: a query *shed* by
the simulated admission queue is a result, not a failure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Sequence

#: Queries whose scores are compared against the DRAM reference.
REFERENCE_QUERIES = 64


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    failed_ops: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _check(name: str, failed_ops: int, detail: str) -> Check:
    return Check(name, failed_ops == 0, detail, failed_ops)


def digests_equal(digests: Sequence[str], traced: bool) -> Check:
    """Every pass simulated the same thing.  With a traced pass among them
    this also proves that outside-in tracing does not perturb the model."""
    distinct = len(set(digests))
    passes = f"{len(digests)} passes" + (" incl. the traced one" if traced else "")
    return _check("sim_digest_repeats", int(distinct != 1), f"{distinct} distinct digest(s) over {passes}")


def queries_conserved(offered: int, served: int, shed: int) -> Check:
    return _check(
        "offered_eq_served_plus_shed",
        int(offered != served + shed),
        f"offered {offered} = served {served} + shed {shed}",
    )


def ios_conserved(counters: Mapping[str, float]) -> Check:
    sdm, tiers = counters.get("sdm.ios", 0), counters.get("tiers.ios", 0)
    return _check("sm_ios_eq_tier_ios", int(sdm != tiers), f"SDMStats.sm_ios {sdm} = sum of tier ios {tiers}")


def scores_match_dram(session: Any, queries: Sequence[Any]) -> Check:
    """Scores served through the workload's backend equal a DRAM-backend
    ``InferenceEngine`` on the same model and queries, bit for bit."""
    import numpy as np
    from repro.api import create_backend
    from repro.dlrm.inference import InferenceEngine
    from repro.serving.engine import ServingEngine

    sample = list(queries[:REFERENCE_QUERIES])
    session.backend.restore_pristine()
    served = ServingEngine(
        session.engine, session.spec.serving.concurrency, store_results=True
    ).run_closed_loop(sample)
    reference = InferenceEngine(
        session.model,
        session.compute,
        user_backend=create_backend("dram", session.model, compute=session.compute),
    )
    wrong = sum(
        not np.array_equal(result.scores, reference.run_query(query).scores)
        for query, result in zip(sample, served.results)
    )
    return _check("scores_eq_dram_reference", wrong, f"{wrong} of {len(sample)} queries differ")


def points_ok(outcomes: Sequence[Any]) -> Check:
    failed = [outcome for outcome in outcomes if not outcome.ok]
    detail = f"{len(failed)} of {len(outcomes)} points failed"
    if failed:
        detail += f" (first: {failed[0].scenario}: {failed[0].error_type}: {failed[0].error})"
    return _check("campaign_points_ok", len(failed), detail)


def store_rereads(store_root: Any, outcomes: Sequence[Any]) -> Check:
    """A fresh reader of the store sees the metrics the run returned."""
    from repro.runtime import ExperimentStore

    records = ExperimentStore(store_root).records()
    wrong = sum(
        records.get(outcome.spec_hash, {}).get("result") != outcome.metrics
        for outcome in outcomes
        if outcome.ok
    )
    return _check("store_rereads_same_metrics", wrong, f"{wrong} of {len(records)} stored points differ")


def shares_sum_to_one(per_layer: Mapping[str, float]) -> Check:
    total = sum(value for name, value in per_layer.items() if name.endswith(".share"))
    return _check("layer_shares_sum_to_1", int(abs(total - 1.0) > 0.02), f"sum of layer shares = {total:.4f}")


def evaluate_expectations(expect: Sequence[Sequence[Any]], per_layer: Mapping[str, float]) -> List[Dict[str, Any]]:
    """Bypass predictions of the workload, reported beside the numbers."""
    relations = {
        "==": lambda got, want: abs(got - want) <= 1e-9,
        "<": lambda got, want: got < want,
        ">": lambda got, want: got > want,
    }
    return [
        {
            "metric": metric,
            "relation": relation,
            "value": want,
            "got": per_layer[metric],
            "ok": bool(relations[relation](per_layer[metric], want)),
        }
        for metric, relation, want in expect
    ]
