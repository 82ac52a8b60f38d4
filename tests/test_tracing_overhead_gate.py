"""The tracing-overhead gate of ``benchmarks/bench_serve_throughput.py``.

``run_tracing_overhead`` alternates one untraced and one traced pass per
pair, flips the order every pair, checks that tracing left the simulated
outcome alone, and reports the median per-pair slowdown.  These tests pin
that method on a short stream; the wall-clock figures themselves are the
benchmark's business.
"""

import dataclasses
import importlib.util
import pathlib
import statistics

import pytest

from repro.obs.trace import ChromeTraceRecorder

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_serve_throughput.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_serve_throughput", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "NUM_QUERIES", 40)
    return module


def _watch_passes(monkeypatch, bench, passes, alter=None):
    """Log ``(backend number, traced?)`` for every pass; ``alter`` may
    rewrite the result of backend 1's passes."""
    build = bench._serving

    def serving(model, row_cache_bytes):
        sdm, engine = build(model, row_cache_bytes)
        number = len(built)
        built.append(engine)
        run = engine.run_open_loop

        def logged(*args, **kwargs):
            passes.append((number, isinstance(engine.recorder, ChromeTraceRecorder)))
            result = run(*args, **kwargs)
            return alter(result) if alter is not None and number == 1 else result

        engine.run_open_loop = logged
        return sdm, engine

    built = []
    monkeypatch.setattr(bench, "_serving", serving)


class TestTracingOverheadGate:
    def test_passes_alternate_and_the_order_flips_every_pair(self, bench, monkeypatch):
        passes = []
        _watch_passes(monkeypatch, bench, passes)
        monkeypatch.setattr(bench, "TRACE_PAIRS", 3)
        payload = bench.run_tracing_overhead()
        # One untimed warm pass per backend, then the timed pairs.
        assert passes[:2] == [(0, False), (1, False)]
        assert passes[2:] == [
            (0, False), (1, True),
            (1, True), (0, False),
            (0, False), (1, True),
        ]
        assert payload["pairs"] == 3
        assert payload["trace_events"] > 0

    def test_overhead_is_the_median_pair_slowdown(self, bench, monkeypatch):
        monkeypatch.setattr(bench, "TRACE_PAIRS", 5)
        payload = bench.run_tracing_overhead()
        overheads = payload["pair_overheads"]
        assert len(overheads) == 5
        assert payload["overhead"] == statistics.median(overheads)
        assert [record["tracing"] for record in payload["records"]] == ["untraced", "traced"]
        assert payload["untraced_qps"] == payload["records"][0]["wall_qps"]

    def test_a_traced_pass_that_changes_the_outcome_fails(self, bench, monkeypatch):
        def one_query_fewer(result):
            return dataclasses.replace(result, num_queries=result.num_queries - 1)

        _watch_passes(monkeypatch, bench, [], alter=one_query_fewer)
        monkeypatch.setattr(bench, "TRACE_PAIRS", 2)
        with pytest.raises(AssertionError, match="changed the simulated outcome of pair 1"):
            bench.run_tracing_overhead()
