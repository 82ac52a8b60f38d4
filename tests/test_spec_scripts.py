"""Scripts that state their scenarios as specs: the tuning study's ranking,
and the appendix benchmarks' campaigns against the serving they replace."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro import ScenarioSpec, Session, run_campaign
from repro.serving import ServingEngine

from helpers import load_script as load


@pytest.fixture(scope="module")
def study():
    return load("examples/tuning_study.py")


@pytest.fixture(scope="module")
def outcomes(study):
    """The study's 16-point campaign, at the scale its docstring states."""
    return run_campaign(study.build_campaign())


def fake(meets_slo, qps, p95):
    stored = {"meets_slo": meets_slo, "achieved_qps": qps, "latency_seconds": {"p95": p95}}
    return SimpleNamespace(result=SimpleNamespace(to_dict=lambda: stored))


class TestTuningStudy:
    def test_the_row_cache_axis_moves_the_hit_rate(self, outcomes):
        rates = {}
        for outcome in outcomes:
            coords = dict(outcome.coords)
            others = (
                str(coords["backend.options.tiers"]),
                coords["backend.options.pooled_len_threshold"],
            )
            rates.setdefault(others, set()).add(
                outcome.result.backend_stats["row cache hit rate"]
            )
        assert len(rates) == 8
        assert all(len(pair) == 2 for pair in rates.values()), rates

    def test_tied_scores_print_as_ties(self, study, outcomes):
        ranked = study.rank(outcomes)
        shares = Counter(study.score(outcome) for outcome in outcomes)
        assert max(shares.values()) > 1  # the study has ties at this scale
        labels = {}
        for label, outcome in ranked:
            key = study.score(outcome)
            assert label.endswith("=") == (shares[key] > 1)
            labels.setdefault(key, set()).add(label)
        assert all(len(same) == 1 for same in labels.values())
        best = [outcome for label, outcome in ranked if label.rstrip("=") == "1"]
        assert len(best) > 1
        text = study.report(ranked)
        assert f"{len(best)} configurations tie for best" in text
        assert "best configuration:" not in text

    def test_rank_orders_by_slo_then_qps_then_p95(self, study):
        missed = fake(False, 900.0, 0.001)
        slow = fake(True, 100.0, 0.002)
        fast = fake(True, 100.0, 0.001)
        top = fake(True, 200.0, 0.005)
        ranked = study.rank([missed, slow, fast, top])
        assert [outcome for _, outcome in ranked] == [top, fast, slow, missed]
        assert [label for label, _ in ranked] == ["1", "2", "3", "4"]

    def test_equal_scores_share_a_rank(self, study):
        first, second = fake(True, 50.0, 0.001), fake(True, 50.0, 0.001)
        third = fake(True, 9.0, 0.1)
        ranked = study.rank([third, first, second])
        assert [label for label, _ in ranked] == ["1=", "1=", "3"]
        assert {id(outcome) for _, outcome in ranked[:2]} == {id(first), id(second)}


class TestAppendixCampaigns:
    def test_the_warm_up_points_are_one_stream_served_in_order(self):
        # Point N serves the first N queries on a fresh backend, so its hit
        # rate is the cumulative hit rate after N queries of one run.
        bench = load("benchmarks/bench_appendix_warmup.py")
        _, curve = bench.build_appendix_a4()
        checkpoints = bench.GRID["workload.num_queries"]
        session = Session(
            ScenarioSpec.from_dict(bench.SPEC).replace("workload.num_queries", checkpoints[-1])
        )
        queries = session.queries()
        expected, served = [], 0
        for checkpoint in checkpoints:
            for query in queries[served:checkpoint]:
                session.engine.run_query(query)
            served = checkpoint
            expected.append((checkpoint, session.backend.row_cache_hit_rate))
        assert curve == expected

    def test_the_interop_points_are_one_closed_loop_each(self):
        bench = load("benchmarks/bench_appendix_interop.py")
        rows = bench.build_appendix_a2()
        (param, settings), = bench.GRID.items()
        for row, setting in zip(rows, settings):
            session = Session(ScenarioSpec.from_dict(bench.SPEC).replace(param, setting))
            result = ServingEngine(session.engine).run_closed_loop(
                session.queries(), warmup_queries=10
            )
            assert row[1:] == [result.percentiles()["mean"] * 1e6, result.achieved_qps]
