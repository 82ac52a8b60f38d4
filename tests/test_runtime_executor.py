"""Executor determinism (serial == pool == reuse), quarantine, store resume."""

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import CampaignSpec, ExperimentStore, ScenarioSpec, Session, run_campaign
from repro.api import ModelChoice, ServingChoice, WorkloadChoice
from repro.api.spec import TrafficSpec
from repro.runtime import runtimes as runtimes_module
from repro.runtime.runtimes import (
    DryRunRuntime,
    LocalPoolRuntime,
    SerialRuntime,
    estimated_cost,
    resolve_runtime,
)


def small_base() -> ScenarioSpec:
    return ScenarioSpec(
        name="exec",
        model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
        workload=WorkloadChoice(num_queries=12, num_users=40),
        serving=ServingChoice(concurrency=1, warmup_queries=0),
    )


def two_axis_campaign() -> CampaignSpec:
    return CampaignSpec.from_grid(
        small_base(),
        {"serving.concurrency": [1, 2], "workload.num_users": [40, 60]},
        name="exec",
    )


def failing_campaign() -> CampaignSpec:
    """One good point, one whose backend option explodes at build time."""
    return CampaignSpec.from_grid(
        small_base(),
        {"backend.options.row_cache_capacity_bytes": [4096, "bogus"]},
        name="exec",
    )


class TestDeterminism:
    def test_parallel_matches_serial_point_for_point(self):
        """Acceptance: 4-worker pool metrics are identical to the serial run."""
        campaign = two_axis_campaign()
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, runtime=LocalPoolRuntime(workers=4))
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert s.index == p.index
            assert s.coords == p.coords
            assert s.spec_hash == p.spec_hash
            assert s.metrics == p.metrics  # full result dict, bit-for-bit

    def test_runtime_parity_matrix(self):
        """Acceptance: serial / pool x reuse-on / reuse-off are bit-identical.

        The grid spans workload AND backend axes, so reuse both hits (points
        sharing a backend_hash) and misses (distinct backends) — and the
        oracle is the no-reuse serial run.
        """
        campaign = CampaignSpec.from_grid(
            small_base(),
            {"backend.name": ["dram", "sdm"], "workload.num_users": [40, 60]},
            name="exec",
        )
        oracle = run_campaign(campaign, runtime="serial", reuse_backends=False)
        variants = {
            "serial+reuse": run_campaign(campaign, runtime="serial"),
            "pool+reuse": run_campaign(campaign, runtime=LocalPoolRuntime(workers=2)),
            "pool-no-reuse": run_campaign(
                campaign, runtime=LocalPoolRuntime(workers=2), reuse_backends=False
            ),
        }
        for name, outcomes in variants.items():
            assert [o.metrics for o in outcomes] == [o.metrics for o in oracle], name

    def test_sweep_parallel_matches_serial_metrics(self):
        """A one-axis study on the pool agrees metric for metric with the
        same axis run serially, each point on a fresh backend."""
        spec = small_base()
        values = [1, 2]
        campaign = CampaignSpec.from_grid(spec, {"serving.concurrency": values})
        serial = run_campaign(campaign, runtime="serial", reuse_backends=False)
        parallel = run_campaign(campaign, runtime=LocalPoolRuntime(workers=2))
        assert [dict(outcome.coords)["serving.concurrency"] for outcome in parallel] == values
        assert [p.metrics for p in parallel] == [s.metrics for s in serial]


class TestBackendReuse:
    def test_second_run_hits_the_resident_cache(self):
        runtimes_module.clear_backend_cache()
        spec_dict = small_base().to_dict()
        first = runtimes_module.run_point(spec_dict, reuse=True)
        size, keys = runtimes_module.backend_cache_info()
        assert size == 1
        assert keys == (small_base().backend_hash(),)
        second = runtimes_module.run_point(spec_dict, reuse=True)
        assert runtimes_module.backend_cache_info()[0] == 1
        assert first == second  # restored backend is bit-identical to fresh
        runtimes_module.clear_backend_cache()

    def test_reuse_off_never_populates_the_cache(self):
        runtimes_module.clear_backend_cache()
        runtimes_module.run_point(small_base().to_dict(), reuse=False)
        assert runtimes_module.backend_cache_info() == (0, ())

    def test_points_sharing_a_backend_hash_reuse_across_workloads(self):
        """Workload/traffic/serving axes share one backend build per worker."""
        base = small_base()
        variant = base.replace("workload.num_users", 60)
        assert base.backend_hash() == variant.backend_hash()
        assert base.spec_hash() != variant.spec_hash()
        runtimes_module.clear_backend_cache()
        fresh = runtimes_module.run_point(variant.to_dict(), reuse=False)
        runtimes_module.run_point(base.to_dict(), reuse=True)  # populate
        reused = runtimes_module.run_point(variant.to_dict(), reuse=True)
        assert runtimes_module.backend_cache_info()[0] == 1
        assert reused == fresh
        runtimes_module.clear_backend_cache()


class TestModelSharing:
    """Backends that miss on ``backend_hash`` still share one built model."""

    @staticmethod
    def _count_model_builds(monkeypatch):
        import repro.api.session as session_module

        builds = []
        build = session_module.build_scaled_model

        def counting(*args, **kwargs):
            builds.append(kwargs.get("seed"))
            return build(*args, **kwargs)

        monkeypatch.setattr(session_module, "build_scaled_model", counting)
        return builds

    def test_cache_axis_grid_is_identical_with_and_without_sharing(self, monkeypatch):
        base = small_base().replace(
            "traffic", TrafficSpec(mode="open", arrival="constant", offered_qps=500.0)
        )
        campaign = CampaignSpec.from_grid(
            base,
            {
                "backend.options.row_cache_capacity_bytes": [4096, 65536, 1 << 20],
                "traffic.offered_qps": [300.0, 3000.0],
            },
            name="exec",
        )
        assert len({point.spec.backend_hash() for point in campaign.points()}) == 3
        builds = self._count_model_builds(monkeypatch)
        runtimes_module.clear_backend_cache()
        oracle = run_campaign(campaign, runtime="serial", reuse_backends=False)
        assert len(builds) == 6
        del builds[:]
        reused = run_campaign(campaign, runtime="serial")
        assert len(builds) == 1  # one model behind three resident backends
        assert runtimes_module.backend_cache_info()[0] == 3
        models = {id(model) for _, model, _ in runtimes_module._BACKEND_CACHE.values()}
        assert len(models) == 1
        runtimes_module.clear_backend_cache()
        pooled = run_campaign(campaign, runtime=LocalPoolRuntime(workers=2))
        for name, outcomes in (("serial+reuse", reused), ("pool+reuse", pooled)):
            assert all(outcome.ok for outcome in outcomes), name
            assert [o.metrics for o in outcomes] == [o.metrics for o in oracle], name

    def test_a_different_model_section_is_not_adopted(self, monkeypatch):
        base = small_base()
        other_seed = base.replace("model.seed", 5).replace(
            "backend.options.row_cache_capacity_bytes", 65536
        )
        builds = self._count_model_builds(monkeypatch)
        runtimes_module.clear_backend_cache()
        fresh = runtimes_module.run_point(other_seed.to_dict(), reuse=False)
        del builds[:]
        runtimes_module.run_point(base.to_dict(), reuse=True)
        shared = runtimes_module.run_point(other_seed.to_dict(), reuse=True)
        assert builds == [0, 5]
        assert shared == fresh
        entries = list(runtimes_module._BACKEND_CACHE.values())
        assert [choice.seed for choice, _, _ in entries] == [0, 5]
        assert entries[0][1] is not entries[1][1]
        runtimes_module.clear_backend_cache()

    def test_adopted_model_is_read_only(self):
        session = Session(small_base())
        table = next(iter(session.model.tables.values()))
        sharing = Session(small_base().replace("backend.name", "dram"))
        sharing.adopt_backend(session.model)
        assert sharing.model is session.model
        assert sharing.backend is not session.backend
        with pytest.raises(ValueError, match="read-only"):
            table.data[0, 0] = 1
        with pytest.raises(RuntimeError, match="adopt_backend"):
            sharing.adopt_backend(session.model)


class TestStreamSharing:
    """Points sharing ``stream_hash`` (model + workload) serve one stream."""

    @staticmethod
    def _rate_cache_grid() -> CampaignSpec:
        base = small_base().replace(
            "traffic", TrafficSpec(mode="open", arrival="constant", offered_qps=500.0)
        )
        return CampaignSpec.from_grid(
            base,
            {
                "traffic.offered_qps": [300.0, 3000.0],
                "backend.options.row_cache_capacity_bytes": [4096, 1 << 20],
            },
            name="exec",
            replicates=2,
        )

    def test_a_grid_generates_each_stream_once(self, monkeypatch, tmp_path):
        from repro.workload.generator import QueryGenerator

        campaign = self._rate_cache_grid()
        keys = {point.spec.stream_hash() for point in campaign.points()}
        assert len(campaign.points()) == 8 and len(keys) == 2
        generated = []
        generate = QueryGenerator.generate

        def counting(self, *args, **kwargs):
            generated.append(self)
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(QueryGenerator, "generate", counting)
        runtimes_module.clear_backend_cache()
        shared = ExperimentStore(tmp_path / "shared")
        outcomes = run_campaign(campaign, runtime="serial", store=shared)
        assert len(generated) == 2
        assert set(runtimes_module._STREAM_CACHE) == keys
        del generated[:]
        fresh = ExperimentStore(tmp_path / "fresh")
        run_campaign(campaign, runtime="serial", store=fresh, reuse_backends=False)
        assert len(generated) == 8
        assert all(outcome.ok for outcome in outcomes)

        def stored(store):
            records = store.records().items()
            return {key: json.dumps(record["result"], sort_keys=True) for key, record in records}

        assert stored(shared) == stored(fresh)
        runtimes_module.clear_backend_cache()

    def test_clear_drops_streams_and_the_limit_holds(self):
        runtimes_module.clear_backend_cache()
        limit = runtimes_module._BACKEND_CACHE_LIMIT
        for seed in range(limit + 2):
            runtimes_module.run_point(small_base().replace("workload.seed", seed).to_dict())
        streams = runtimes_module._STREAM_CACHE
        assert len(streams) == limit
        newest = [small_base().replace("workload.seed", s) for s in range(2, limit + 2)]
        assert list(streams) == [spec.stream_hash() for spec in newest]  # two evicted
        assert runtimes_module.backend_cache_info()[0] == 1
        runtimes_module.clear_backend_cache()
        assert len(streams) == 0 and runtimes_module.backend_cache_info() == (0, ())

    def test_reuse_off_keeps_no_stream(self):
        runtimes_module.clear_backend_cache()
        runtimes_module.run_point(small_base().to_dict(), reuse=False)
        assert len(runtimes_module._STREAM_CACHE) == 0

    def test_adopt_queries_only_before_generating(self):
        session = Session(small_base())
        queries = session.queries()
        other = Session(small_base().replace("serving.concurrency", 2))
        other.adopt_queries(queries)
        assert other.queries() is queries
        with pytest.raises(RuntimeError, match="adopt_queries"):
            session.adopt_queries(queries)


class TestQuarantine:
    @pytest.mark.parametrize("runtime", ["serial", "pool"])
    def test_failing_point_is_quarantined_and_siblings_complete(
        self, tmp_path, runtime
    ):
        """Acceptance: a raising point becomes a failure outcome, its error is
        recorded, and every sibling still completes and persists."""
        store = ExperimentStore(tmp_path / "run")
        outcomes = run_campaign(failing_campaign(), store=store, runtime=runtime)
        assert [o.status for o in outcomes] == ["ok", "failed"]
        good, bad = outcomes
        assert good.ok and not good.failed
        assert bad.failed and not bad.ok and bad.result is None
        assert bad.error_type == "TypeError"
        assert "str" in bad.error
        assert bad.attempts == 1
        # Only the successful sibling is persisted; the failure retries on
        # resume instead of being served from the store.
        assert len(store) == 1
        assert store.get(good.spec_hash) is not None
        assert store.get(bad.spec_hash) is None

    def test_metrics_raises_on_a_failed_outcome(self):
        outcomes = run_campaign(failing_campaign(), runtime="serial")
        with pytest.raises(ValueError, match="has no result"):
            outcomes[1].metrics

    def test_resume_after_failure_reruns_only_the_failed_point(
        self, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "run")
        run_campaign(failing_campaign(), store=store, runtime="serial")
        assert len(store) == 1

        executed = []
        real_run_point = runtimes_module.run_point

        def recording_run_point(spec_dict, **kwargs):
            executed.append(spec_dict["backend"]["options"])
            return real_run_point(spec_dict, **kwargs)

        monkeypatch.setattr(runtimes_module, "run_point", recording_run_point)
        second = run_campaign(
            failing_campaign(), store=ExperimentStore(tmp_path / "run")
        )
        assert [o.status for o in second] == ["cached", "failed"]
        assert executed == [{"row_cache_capacity_bytes": "bogus"}]

    def test_retries_rerun_flaky_points_before_quarantining(self, monkeypatch):
        campaign = two_axis_campaign()
        real_run_point = runtimes_module.run_point
        failures_left = {}

        def flaky_run_point(spec_dict, **kwargs):
            remaining = failures_left.setdefault(spec_dict["name"], 1)
            if remaining:
                failures_left[spec_dict["name"]] = remaining - 1
                raise RuntimeError("transient")
            return real_run_point(spec_dict, **kwargs)

        monkeypatch.setattr(runtimes_module, "run_point", flaky_run_point)
        outcomes = run_campaign(campaign, runtime="serial", retries=1)
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert [o.attempts for o in outcomes] == [2] * 4
        # Without retries the same flakiness quarantines every point.
        failures_left.clear()
        outcomes = run_campaign(campaign, runtime="serial")
        assert [o.status for o in outcomes] == ["failed"] * 4


class TestDryRun:
    def test_dry_run_plans_without_executing(self, tmp_path, monkeypatch):
        def boom(spec_dict, **kwargs):
            raise AssertionError("dry run executed a point")

        monkeypatch.setattr(runtimes_module, "run_point", boom)
        store = ExperimentStore(tmp_path / "run")
        outcomes = run_campaign(two_axis_campaign(), store=store, runtime="dry")
        assert [o.status for o in outcomes] == ["skipped"] * 4
        assert all(not o.executed and o.result is None and o.error is None
                   for o in outcomes)
        assert len(store) == 0
        assert not store.result_paths()

    def test_dry_run_still_serves_cached_points(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        prefix = CampaignSpec.from_grid(
            small_base(), {"serving.concurrency": [1]}, name="exec"
        )
        run_campaign(prefix, store=store)
        outcomes = run_campaign(
            CampaignSpec.from_grid(
                small_base(), {"serving.concurrency": [1, 2]}, name="exec"
            ),
            store=store,
            runtime="dry",
        )
        assert [o.status for o in outcomes] == ["cached", "skipped"]


class TestWorkStealing:
    def test_dispatch_is_longest_expected_first(self, monkeypatch):
        submitted = []

        class RecordingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec_dict, **kwargs):
                submitted.append(spec_dict["workload"]["num_queries"])
                future = Future()
                future.set_result(fn(spec_dict, **kwargs))
                return future

        monkeypatch.setattr(runtimes_module, "ProcessPoolExecutor", RecordingPool)
        campaign = CampaignSpec.from_grid(
            small_base(), {"workload.num_queries": [12, 48, 24]}, name="exec"
        )
        outcomes = run_campaign(campaign, runtime=LocalPoolRuntime(workers=2))
        assert submitted == [48, 24, 12]  # big points dispatch first
        # ...but outcomes still come back in point order.
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.status for o in outcomes] == ["ok"] * 3

    def test_estimated_cost_scales_with_queries_and_batch(self):
        base = small_base()
        assert estimated_cost(base.replace("workload.num_queries", 48)) > (
            estimated_cost(base)
        )
        assert estimated_cost(base.replace("workload.item_batch", 8)) > (
            estimated_cost(base)
        )

    def test_pool_workers_persist_to_store_shards(self, tmp_path):
        campaign = two_axis_campaign()
        store = ExperimentStore(tmp_path / "run")
        outcomes = run_campaign(campaign, store=store, runtime=LocalPoolRuntime(workers=2))
        assert [o.status for o in outcomes] == ["ok"] * 4
        # Workers appended their own shards; the driver wrote nothing itself.
        assert store.shard_paths()
        assert not store.results_path.exists()
        reopened = ExperimentStore(tmp_path / "run")
        assert len(reopened) == 4
        resumed = run_campaign(campaign, store=reopened)
        assert all(o.cached for o in resumed)
        assert [o.metrics for o in resumed] == [o.metrics for o in outcomes]


class TestStoreResume:
    def test_completed_points_are_served_from_the_store(self, tmp_path, monkeypatch):
        """Acceptance: re-running against the store executes zero new points."""
        campaign = two_axis_campaign()
        store = ExperimentStore(tmp_path / "run")
        first = run_campaign(campaign, store=store)
        assert all(not outcome.cached for outcome in first)
        assert len(store) == 4

        # Any attempt to actually execute a point now is a test failure.
        def boom(spec_dict, **kwargs):
            raise AssertionError(f"point re-executed: {spec_dict['name']}")

        monkeypatch.setattr(runtimes_module, "run_point", boom)
        second = run_campaign(campaign, store=ExperimentStore(tmp_path / "run"))
        assert all(outcome.cached for outcome in second)
        assert [o.metrics for o in second] == [o.metrics for o in first]

    def test_partially_populated_store_runs_only_the_remainder(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        # Pre-populate with a smaller campaign: same name, a prefix of the grid.
        prefix = CampaignSpec.from_grid(
            small_base(),
            {"serving.concurrency": [1], "workload.num_users": [40, 60]},
            name="exec",
        )
        run_campaign(prefix, store=store)
        assert len(store) == 2

        events = []
        outcomes = run_campaign(
            two_axis_campaign(),
            store=store,
            progress=lambda outcome, done, total: events.append(
                (outcome.cached, done, total)
            ),
        )
        assert [outcome.cached for outcome in outcomes] == [True, True, False, False]
        assert len(store) == 4
        assert [done for _, done, _ in events] == [1, 2, 3, 4]
        assert all(total == 4 for _, _, total in events)

    def test_store_records_are_self_describing(self, tmp_path):
        campaign = CampaignSpec.from_grid(
            small_base(), {"serving.concurrency": [2]}, name="exec"
        )
        store = ExperimentStore(tmp_path / "run")
        (outcome,) = run_campaign(campaign, store=store)
        record = store.get(outcome.spec_hash)
        assert record["scenario"] == "exec[serving.concurrency=2]"
        assert record["coords"] == [["serving.concurrency", 2]]
        assert record["spec"]["serving"]["concurrency"] == 2
        assert record["result"] == outcome.metrics

    def test_invalid_arguments(self):
        campaign = CampaignSpec.from_grid(small_base(), {"serving.concurrency": [1]})
        with pytest.raises(ValueError, match="workers"):
            run_campaign(campaign, runtime=LocalPoolRuntime(workers=0))
        with pytest.raises(ValueError, match="retries"):
            run_campaign(campaign, retries=-1)
        with pytest.raises(ValueError, match="unknown runtime"):
            run_campaign(campaign, runtime="quantum")

    def test_resolve_runtime_contract(self):
        assert isinstance(resolve_runtime("serial"), SerialRuntime)
        assert isinstance(resolve_runtime("pool"), LocalPoolRuntime)
        assert isinstance(resolve_runtime("dry"), DryRunRuntime)
        engine = LocalPoolRuntime(workers=3)
        assert resolve_runtime(engine) is engine

    def test_pool_failure_falls_back_to_serial(self, monkeypatch, tmp_path):
        campaign = two_axis_campaign()

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork for you")

        monkeypatch.setattr(runtimes_module, "ProcessPoolExecutor", BrokenPool)
        store = ExperimentStore(tmp_path / "run")
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            outcomes = run_campaign(
                campaign, store=store, runtime=LocalPoolRuntime(workers=4)
            )
        assert len(outcomes) == 4
        assert len(store) == 4
        assert [o.metrics for o in outcomes] == [
            o.metrics for o in run_campaign(campaign)
        ]

    def test_pool_break_mid_stream_preserves_completed_points(
        self, monkeypatch, tmp_path
    ):
        """Acceptance: a pool dying mid-campaign keeps every already-persisted
        point and re-runs only the remainder, serially."""
        campaign = two_axis_campaign()

        class MidStreamPool:
            """First two submissions complete inline, then the pool 'dies'."""

            def __init__(self, *args, **kwargs):
                self.submissions = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                future = Future()
                future.test_order = self.submissions
                if self.submissions < 2:
                    future.set_result(fn(*args, **kwargs))
                else:
                    future.set_exception(BrokenProcessPool("pool died mid-stream"))
                self.submissions += 1
                return future

        def ordered_wait(futures, return_when=None):
            done = sorted(
                (f for f in futures if f.done()), key=lambda f: f.test_order
            )
            return [done[0]], set(futures) - {done[0]}

        executed_serially = []
        real_run_point = runtimes_module.run_point

        def tracking_run_point(spec_dict, **kwargs):
            if kwargs.get("store_root") is None:
                executed_serially.append(spec_dict["name"])
            return real_run_point(spec_dict, **kwargs)

        monkeypatch.setattr(runtimes_module, "ProcessPoolExecutor", MidStreamPool)
        monkeypatch.setattr(runtimes_module, "wait", ordered_wait)
        monkeypatch.setattr(runtimes_module, "run_point", tracking_run_point)

        store = ExperimentStore(tmp_path / "run")
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            outcomes = run_campaign(campaign, store=store, runtime=LocalPoolRuntime(workers=2))
        points = campaign.points()
        # Only the two points the pool never finished re-ran inline.
        assert executed_serially == [points[2].spec.name, points[3].spec.name]
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert len(store) == 4
        # The pool-completed points live in a worker shard, the serial
        # remainder in the driver's main file — and both merge on reload.
        assert store.shard_paths()
        assert store.results_path.exists()
        assert len(ExperimentStore(tmp_path / "run")) == 4
        oracle = run_campaign(campaign)
        assert [o.metrics for o in outcomes] == [o.metrics for o in oracle]
