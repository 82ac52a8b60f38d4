"""Tests for ScenarioSpec round-tripping, the Session facade and the CLI."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CampaignSpec,
    ComputeSpec,
    InferenceEngine,
    M1_SPEC,
    QueryGenerator,
    ScenarioSpec,
    SDMConfig,
    ServingEngine,
    Session,
    SoftwareDefinedMemory,
    WorkloadConfig,
    build_scaled_model,
    run_campaign,
)
from repro.api import BackendChoice, ModelChoice, ServingChoice, TrafficSpec, WorkloadChoice
from repro.api.cli import main as cli_main
from repro.core import DEFAULT_TIERS
from repro.sim.units import MIB

from helpers import POOLED_SDM_OPTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A small closed-loop run, spelled by spec path.
SMALL_RUN = [
    "--set", "model.max_rows_per_table=256",
    "--set", "workload.num_queries=20",
    "--set", "serving.warmup_queries=0",
]

QUICKSTART_SPEC = ScenarioSpec(
    name="quickstart-parity",
    model=ModelChoice(spec="M1", max_tables_per_group=4, max_rows_per_table=2048, item_batch=4),
    backend=BackendChoice(
        name="sdm",
        options=dict(
            row_cache_capacity_bytes=4 * MIB,
            pooled_cache_capacity_bytes=1 * MIB,
        ),
    ),
    workload=WorkloadChoice(num_queries=100, item_batch=4, num_users=200, seed=0),
    serving=ServingChoice(concurrency=2, warmup_queries=20),
)


class TestScenarioSpec:
    def test_to_dict_from_dict_round_trip(self):
        spec = QUICKSTART_SPEC
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = QUICKSTART_SPEC
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_defaults_round_trip(self):
        assert ScenarioSpec.from_dict(ScenarioSpec().to_dict()) == ScenarioSpec()

    def test_from_dict_rejects_unknown_top_level_keys(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_dict({"modle": {}})

    def test_from_dict_rejects_unknown_section_keys(self):
        with pytest.raises(ValueError, match="unknown WorkloadChoice keys"):
            ScenarioSpec.from_dict({"workload": {"num_queries": 10, "qps": 1}})

    def test_from_dict_rejects_non_mapping_sections(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            ScenarioSpec.from_dict({"model": None})

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ValueError, match="unknown model spec"):
            ModelChoice(spec="M9")

    def test_replace_section_field(self):
        spec = ScenarioSpec().replace("serving.concurrency", 8)
        assert spec.serving.concurrency == 8
        assert ScenarioSpec().serving.concurrency == 2  # original untouched

    def test_replace_backend_option(self):
        spec = ScenarioSpec().replace("backend.options.row_cache_capacity_bytes", 4096)
        assert spec.backend.options["row_cache_capacity_bytes"] == 4096

    def test_replace_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown spec path"):
            ScenarioSpec().replace("engine.concurrency", 1)
        with pytest.raises(ValueError, match="has no field"):
            ScenarioSpec().replace("serving.qps", 1)


class TestSessionParity:
    def test_run_matches_hand_wired_quickstart(self):
        """Session.run() reproduces the hand-wired five-step incantation."""
        # The hand-wired path, exactly as examples/quickstart.py used to do it.
        model = build_scaled_model(
            M1_SPEC, max_tables_per_group=4, max_rows_per_table=2048, item_batch=4
        )
        sdm = SoftwareDefinedMemory(
            model,
            SDMConfig(
                row_cache_capacity_bytes=4 * MIB,
                pooled_cache_capacity_bytes=1 * MIB,
            ),
        )
        engine = InferenceEngine(model, ComputeSpec(), user_backend=sdm)
        queries = QueryGenerator(
            model, WorkloadConfig(item_batch=4, num_users=200), seed=0
        ).generate(100)
        hand_wired = ServingEngine(engine, concurrency=2).run_closed_loop(queries, warmup_queries=20)

        session_result = Session(QUICKSTART_SPEC).run()
        via_session = session_result.host_result

        assert via_session.num_queries == hand_wired.num_queries
        assert via_session.latencies == hand_wired.latencies
        assert via_session.makespan_seconds == hand_wired.makespan_seconds
        for mine, theirs in zip(via_session.results, hand_wired.results):
            np.testing.assert_array_equal(mine.scores, theirs.scores)
            assert mine.latency == theirs.latency
            assert mine.bottom_mlp_time == theirs.bottom_mlp_time
            assert mine.user_embedding_time == theirs.user_embedding_time
            assert mine.item_embedding_time == theirs.item_embedding_time
            assert mine.top_mlp_time == theirs.top_mlp_time

        assert session_result.achieved_qps == hand_wired.achieved_qps
        assert session_result.latency == hand_wired.percentiles()

    def test_sdm_and_dram_backends_agree_on_scores(self):
        sdm_session = Session(QUICKSTART_SPEC)
        dram_session = Session(
            ScenarioSpec.from_dict({**QUICKSTART_SPEC.to_dict(), "backend": {"name": "dram"}})
        )
        for query, reference in zip(sdm_session.queries()[:3], dram_session.queries()[:3]):
            np.testing.assert_allclose(
                sdm_session.engine.run_query(query).scores,
                dram_session.engine.run_query(reference).scores,
                rtol=1e-4,
                atol=1e-5,
            )


@pytest.fixture
def small_spec():
    return ScenarioSpec(
        name="small",
        model=ModelChoice(max_tables_per_group=2, max_rows_per_table=512),
        backend=BackendChoice(
            name="sdm",
            options=dict(
                row_cache_capacity_bytes=256 * 1024,
                pooled_cache_capacity_bytes=128 * 1024,
            ),
        ),
        workload=WorkloadChoice(num_queries=40, num_users=100),
        serving=ServingChoice(concurrency=2, warmup_queries=10),
    )


class TestSession:
    def test_lazy_construction(self, small_spec):
        session = Session(small_spec)
        assert session._model is None and session._backend is None
        session.queries()  # workload needs the model but not the backend
        assert session._model is not None
        assert session._backend is None

    def test_run_reports_backend_stats_for_sdm(self, small_spec):
        result = Session(small_spec).run()
        assert result.backend_name == "sdm"
        assert result.num_queries == 30  # 40 queries minus 10 warmup
        assert 0.0 <= result.backend_stats["row cache hit rate"] <= 1.0
        assert set(result.latency) == {"mean", "p50", "p95", "p99"}
        assert result.to_dict()["backend_stats"]["SM IOs per query"] >= 0

    def test_dram_backend_has_no_backend_stats(self, small_spec):
        result = Session(
            ScenarioSpec.from_dict({**small_spec.to_dict(), "backend": {"name": "dram"}})
        ).run()
        assert result.backend_stats == {}

    def test_reset_stats_after_warmup_measures_steady_state(self, small_spec):
        spec = small_spec.replace("serving.reset_stats_after_warmup", True)
        result = Session(spec).run()
        assert result.num_queries == 30
        # The warmed cache keeps serving, only the counters were reset.
        assert result.backend_stats["row cache hit rate"] > 0.0

    def test_sweep_runs_each_value_in_a_fresh_session(self, small_spec):
        campaign = CampaignSpec.from_grid(small_spec, {"serving.concurrency": [1, 2]})
        outcomes = run_campaign(campaign, reuse_backends=False)
        assert [dict(outcome.coords) for outcome in outcomes] == [
            {"serving.concurrency": 1}, {"serving.concurrency": 2}
        ]
        results = [outcome.result for outcome in outcomes]
        assert all(result.num_queries == 30 for result in results)
        # More streams never reduce simulated closed-loop throughput.
        assert results[1].achieved_qps >= results[0].achieved_qps

    def test_sweep_over_backend_options(self, small_spec):
        base = small_spec.replace(
            "backend.options.tiers", [tier.to_dict() for tier in DEFAULT_TIERS]
        )
        campaign = CampaignSpec.from_grid(base, {"tiers.1.devices": [1, 2]})
        outcomes = run_campaign(campaign)
        assert [outcome.result.num_queries for outcome in outcomes] == [30, 30]
        assert outcomes[0].spec_hash != outcomes[1].spec_hash

    def test_result_table_renders(self, small_spec):
        table = Session(small_spec).run().summary_table()
        assert "achieved QPS" in table and "small" in table

    def test_power_summary_analytic(self):
        spec = ScenarioSpec(
            name="table8",
            serving=ServingChoice(
                platform="HW-SS",
                qps_per_host=120,
                baseline_platform="HW-L",
                baseline_qps_per_host=240,
                fleet_qps=120 * 240,
            ),
        )
        power = Session(spec).power_summary()
        assert power.num_hosts == 240
        assert power.power_saving == pytest.approx(0.2)

    def test_power_summary_requires_qps_source(self):
        spec = ScenarioSpec(serving=ServingChoice(platform="HW-SS"))
        with pytest.raises(ValueError, match="qps_per_host"):
            Session(spec).power_summary()

    def test_unknown_platform_rejected(self):
        spec = ScenarioSpec(serving=ServingChoice(platform="HW-XX", qps_per_host=1.0))
        with pytest.raises(ValueError, match="unknown platform"):
            Session(spec).power_summary()


class TestCLI:
    def _run_json(self, capsys, argv):
        assert cli_main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_list_backends(self, capsys):
        payload = self._run_json(capsys, ["list-backends", "--json"])
        assert set(payload) == {"dram", "sdm", "tiered"}

    def test_run_scenario(self, capsys):
        payload = self._run_json(
            capsys,
            ["run", "--set", "model.max_rows_per_table=256", "--set", "workload.num_queries=30",
             "--set", "serving.warmup_queries=5", "--set", "workload.num_users=50",
             "--json"],
        )
        assert payload["backend"] == "sdm"
        assert payload["num_queries"] == 25
        assert payload["achieved_qps"] > 0

    def test_run_with_backend_options(self, capsys):
        payload = self._run_json(
            capsys,
            ["run", *SMALL_RUN, "--set", "backend.name=sdm",
             "--set", "backend.options.row_cache_capacity_bytes=65536",
             "--set", "backend.options.pooled_cache_enabled=false", "--json"],
        )
        assert payload["backend_stats"]["pooled cache hit rate"] == 0.0

    def test_a_pooled_value_beside_a_pooled_cache_turned_off_is_a_user_error(self, capsys):
        argv = ["run", *SMALL_RUN, "--set", "backend.options.pooled_cache_enabled=false",
                "--set", "backend.options.pooled_len_threshold=4"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "would be ignored" in err and "pooled_len_threshold=4" in err

    def test_sweep(self, capsys):
        payload = self._run_json(
            capsys,
            ["campaign", "--grid", "serving.concurrency=1,2", *SMALL_RUN, "--quiet",
             "--json"],
        )
        assert [point["coords"] for point in payload] == [
            [["serving.concurrency", 1]], [["serving.concurrency", 2]]
        ]

    def test_spec_file_round_trip(self, capsys, tmp_path):
        spec_file = tmp_path / "scenario.json"
        spec = ScenarioSpec(
            name="from-file",
            model=ModelChoice(max_tables_per_group=2, max_rows_per_table=256),
            workload=WorkloadChoice(num_queries=20, num_users=50),
            serving=ServingChoice(concurrency=1, warmup_queries=0),
        )
        spec_file.write_text(json.dumps(spec.to_dict()))
        payload = self._run_json(capsys, ["run", "--spec", str(spec_file), "--json"])
        assert payload["scenario"] == "from-file"
        assert payload["num_queries"] == 20

    def test_python_dash_m_repro_entry_point(self):
        """Acceptance: `python -m repro run` executes an M1 SDM scenario."""
        env_src = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--set", "model.spec=M1",
             "--set", "backend.name=sdm", *SMALL_RUN, "--json"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["backend"] == "sdm"
        assert payload["num_queries"] == 20

    def test_python_dash_m_repro_list_backends(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list-backends"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert completed.returncode == 0, completed.stderr
        assert "sdm" in completed.stdout


class TestTrafficSpec:
    def test_defaults_are_closed_loop(self):
        assert TrafficSpec().mode == "closed"
        assert ScenarioSpec().traffic == TrafficSpec()

    def test_round_trip_with_traffic(self):
        spec = ScenarioSpec(
            name="open",
            traffic=TrafficSpec(mode="open", arrival="poisson", offered_qps=150.0),
        )
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_trace_round_trips_through_json(self):
        spec = ScenarioSpec(
            traffic=TrafficSpec(mode="open", arrival="trace", trace=(0.0, 0.5, 1.0))
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.traffic.trace == (0.0, 0.5, 1.0)

    def test_old_specs_without_traffic_section_still_load(self):
        data = ScenarioSpec().to_dict()
        del data["traffic"]
        assert ScenarioSpec.from_dict(data) == ScenarioSpec()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficSpec(mode="half-open")
        with pytest.raises(ValueError):
            TrafficSpec(arrival="warp-drive")
        with pytest.raises(ValueError):
            TrafficSpec(mode="open", arrival="poisson")  # no offered_qps
        with pytest.raises(ValueError):
            TrafficSpec(mode="open", arrival="constant", offered_qps=-5.0)
        with pytest.raises(ValueError):
            TrafficSpec(mode="open", arrival="trace")  # no trace
        with pytest.raises(ValueError):
            TrafficSpec(queue_depth=-1)
        with pytest.raises(ValueError):
            TrafficSpec(serve_batch=0)

    def test_serve_batch_round_trips_through_json(self):
        spec = ScenarioSpec(
            traffic=TrafficSpec(
                mode="open", arrival="poisson", offered_qps=100.0, serve_batch=8
            )
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.traffic.serve_batch == 8

    def test_replace_traffic_path(self):
        spec = ScenarioSpec().replace("traffic.offered_qps", 80.0)
        spec = spec.replace("traffic.mode", "open")
        assert spec.traffic.mode == "open"
        assert spec.traffic.offered_qps == 80.0


class TestOpenLoopSession:
    def _open_spec(self, offered_qps=500.0, **traffic_overrides):
        traffic = dict(mode="open", arrival="poisson", offered_qps=offered_qps, seed=3)
        traffic.update(traffic_overrides)
        return ScenarioSpec(
            name="open-small",
            model=ModelChoice(max_tables_per_group=2, max_rows_per_table=512),
            backend=BackendChoice(
                name="sdm",
                options=dict(
                    row_cache_capacity_bytes=256 * 1024,
                    pooled_cache_capacity_bytes=128 * 1024,
                ),
            ),
            workload=WorkloadChoice(num_queries=40, num_users=100),
            traffic=TrafficSpec(**traffic),
            serving=ServingChoice(concurrency=2, warmup_queries=10),
        )

    def test_run_reports_queueing_and_drops(self):
        result = Session(self._open_spec()).run()
        assert result.traffic_mode == "open"
        assert result.offered_qps is not None and result.offered_qps > 0
        assert result.queueing is not None
        assert set(result.queueing) == {"mean", "p50", "p95", "p99"}
        assert result.dropped_queries >= 0
        payload = result.to_dict()
        assert payload["traffic_mode"] == "open"
        assert payload["queueing_seconds"] == result.queueing
        assert "offered QPS" in result.summary_table()

    def test_closed_loop_result_has_no_queueing(self):
        spec = self._open_spec()
        closed = ScenarioSpec.from_dict(
            {**spec.to_dict(), "traffic": {"mode": "closed"}}
        )
        result = Session(closed).run()
        assert result.traffic_mode == "closed"
        assert result.queueing is None
        assert result.offered_qps is None

    def test_overload_shows_queueing_above_service_time(self):
        closed = Session(
            ScenarioSpec.from_dict(
                {**self._open_spec().to_dict(), "traffic": {"mode": "closed"}}
            )
        ).run()
        capacity = closed.achieved_qps
        hot = Session(self._open_spec(offered_qps=3.0 * capacity)).run()
        # The median, not p99: with 30 measured queries p99 is one
        # cache-missing query in either run, while at 3x capacity every
        # query queues.
        assert hot.latency["p50"] > closed.latency["p50"]
        assert hot.queueing["p99"] > 0.0

    def test_serve_batch_reaches_the_engine_and_the_result(self):
        result = Session(self._open_spec(serve_batch=4)).run()
        assert result.serve_batch == 4
        assert result.to_dict()["serve_batch"] == 4
        assert ["serve batch", 4] in result.summary_rows()

    def test_store_results_false_drops_raw_results(self):
        spec = self._open_spec()
        spec = spec.replace("serving.store_results", False)
        result = Session(spec).run()
        assert result.host_result.results == []
        assert result.num_queries == 30

    def test_sweep_of_open_loop_param_with_closed_traffic_is_an_error(self):
        closed = ScenarioSpec.from_dict(
            {**self._open_spec().to_dict(), "traffic": {"mode": "closed"}}
        )
        for param, values in (
            ("traffic.offered_qps", [100.0, 200.0]),
            ("traffic.queue_depth", [1, 2]),
            ("traffic.arrival", ["poisson", "constant"]),
        ):
            with pytest.raises(ValueError, match="closed-loop"):
                CampaignSpec.from_grid(closed, {param: values})

    def test_sweep_over_offered_qps(self):
        # The small scenario sustains a few thousand QPS closed-loop; sweep a
        # point well below and a point well above that capacity.
        campaign = CampaignSpec.from_grid(
            self._open_spec(), {"traffic.offered_qps": [500.0, 50_000.0]}
        )
        outcomes = run_campaign(campaign)
        assert [outcome.coords for outcome in outcomes] == [
            (("traffic.offered_qps", 500.0),), (("traffic.offered_qps", 50_000.0),)
        ]
        low, high = (outcome.result for outcome in outcomes)
        # Above the saturation knee, queueing delay dominates the p99.
        assert high.queueing["p99"] > low.queueing["p99"]
        assert high.latency["p99"] > low.latency["p99"]


class TestOpenLoopCLI:
    def _run_json(self, capsys, argv):
        assert cli_main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_run_open_loop_arguments(self, capsys):
        payload = self._run_json(
            capsys,
            ["run", *SMALL_RUN, "--arrival", "poisson",
             "--set", "traffic.offered_qps=200.0", "--set", "traffic.queue_depth=16",
             "--json"],
        )
        assert payload["traffic_mode"] == "open"
        assert payload["offered_qps"] > 0
        assert payload["queueing_seconds"] is not None

    def test_arrival_closed_keeps_closed_loop(self, capsys):
        payload = self._run_json(capsys, ["run", *SMALL_RUN, "--arrival", "closed", "--json"])
        assert payload["traffic_mode"] == "closed"

    def test_open_loop_without_offered_qps_is_a_user_error(self, capsys):
        assert cli_main(["run", *SMALL_RUN, "--arrival", "poisson"]) == 2
        assert "offered_qps" in capsys.readouterr().err

    def test_queue_depth_alone_without_rate_is_a_user_error(self, capsys):
        assert cli_main(["run", *SMALL_RUN, "--set", "traffic.queue_depth=8"]) == 2
        assert "offered_qps" in capsys.readouterr().err

    def test_offered_qps_alone_implies_open_loop(self, capsys):
        payload = self._run_json(
            capsys, ["run", *SMALL_RUN, "--set", "traffic.offered_qps=150.0", "--json"]
        )
        assert payload["traffic_mode"] == "open"
        assert payload["queueing_seconds"] is not None

    def test_sweep_over_offered_qps_implies_open_loop(self, capsys):
        payload = self._run_json(
            capsys,
            ["campaign", "--grid", "traffic.offered_qps=100,1000", *SMALL_RUN,
             "--quiet", "--json"],
        )
        assert [point["result"]["traffic_mode"] for point in payload] == ["open", "open"]
        qps = [point["result"]["achieved_qps"] for point in payload]
        assert qps[0] != qps[1]  # the offered load actually took effect

    def test_sweep_offered_qps_with_arrival_closed_is_a_user_error(self, capsys):
        """The open-loop rule in both spellings: an offered load with
        --arrival closed is an error, not a silently dropped value."""
        for argv in (
            ["run", "--set", "traffic.offered_qps=100.0"],
            ["campaign", "--grid", "traffic.offered_qps=100,200"],
        ):
            assert cli_main([*argv, *SMALL_RUN, "--arrival", "closed"]) == 2
            err = capsys.readouterr().err
            assert "traffic.offered_qps needs open-loop traffic" in err

    def test_open_loop_path_with_set_closed_mode_is_a_user_error(self, capsys):
        argv = ["run", *SMALL_RUN, "--set", "traffic.mode=closed",
                "--set", "traffic.serve_batch=4"]
        assert cli_main(argv) == 2
        assert "traffic.serve_batch needs open-loop traffic" in capsys.readouterr().err


class TestSetFlag:
    """``--set PATH=VALUE`` is the one name of a scenario value."""

    #: Each deleted alias flag and the --set form of the same value.  A
    #: float field takes a float literal (``200.0``): ``200`` parses as an
    #: int, a different canonical spec.
    SET_FORMS = {
        "--name": ["name=demo"],
        "--model": ["model.spec=M2"],
        "--tables": ["model.max_tables_per_group=3"],
        "--rows": ["model.max_rows_per_table=256"],
        "--backend": ["backend.name=dram"],
        "--queries": ["workload.num_queries=30"],
        "--users": ["workload.num_users=50"],
        "--concurrency": ["serving.concurrency=4"],
        "--warmup": ["serving.warmup_queries=5"],
        "--platform": ["serving.platform=HW-SS"],
        "--baseline-platform": ["serving.baseline_platform=HW-L"],
        "--qps-per-host": ["serving.qps_per_host=240.0"],
        "--baseline-qps-per-host": ["serving.baseline_qps_per_host=120.0"],
        "--fleet-qps": ["serving.fleet_qps=288000.0"],
        "--sample-interval": ["telemetry.sample_interval=0.01"],
        "--option": ["backend.options.pooled_len_threshold=4"],
        # workload.item_batch=None inherits model.item_batch, so the first
        # --set alone runs the same scenario; the second pins the very spec.
        "--item-batch": ["model.item_batch=8", "workload.item_batch=8"],
        "--offered-qps": ["traffic.offered_qps=200.0"],
        "--queue-depth": ["traffic.offered_qps=200.0", "traffic.queue_depth=16"],
        "--serve-batch": ["traffic.offered_qps=200.0", "traffic.serve_batch=4"],
    }
    #: The spec each flag built, pinned from the last tree that had it.
    GOLDEN = json.loads((REPO_ROOT / "tests" / "golden" / "cli_flags.json").read_text())

    def test_every_deleted_flag_has_a_set_form(self):
        assert sorted(self.SET_FORMS) == sorted(self.GOLDEN)
        assert len(self.SET_FORMS) == 20

    @pytest.mark.parametrize("flag", sorted(SET_FORMS))
    def test_set_builds_the_spec_the_deleted_flag_built(self, flag):
        from repro.api.cli import _spec_from_args, build_parser

        argv = ["run"] + [arg for pair in self.SET_FORMS[flag] for arg in ("--set", pair)]
        spec = _spec_from_args(build_parser().parse_args(argv), {})
        assert spec.canonical_json() == self.GOLDEN[flag]["canonical_json"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", *self.GOLDEN[flag]["flag_argv"]])

    def test_run_parser_has_only_the_kept_flags(self):
        from repro.api.cli import build_parser

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert "sweep" not in subparsers.choices
        flags = {
            option
            for action in subparsers.choices["run"]._actions
            for option in action.option_strings
        }
        assert flags == {
            "-h", "--help", "--spec", "--set", "--tiers", "--seed", "--arrival",
            "--json", "--trace-out", "--timeline-out",
        }

    def test_sets_apply_in_order_after_the_spec_file(self, tmp_path):
        from repro.api.cli import _spec_from_args, build_parser

        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(ScenarioSpec(name="from-file").to_dict()))
        args = build_parser().parse_args(
            ["run", "--spec", str(spec_file), "--tiers", "dram:0,nand:1GiB",
             "--set", "tiers.1.capacity=2GiB", "--set", "backend.name=sdm"]
        )
        spec = _spec_from_args(args, {})
        assert spec.name == "from-file"
        # --tiers picks the tiered backend; a later --set overrides it.
        assert spec.backend.name == "sdm"
        assert spec.backend.options["tiers"][1]["capacity"] == "2GiB"

    def test_set_order_does_not_decide_whether_a_spec_parses(self, capsys, tmp_path):
        # Options set on a dram spec before the name that takes them: the
        # backend is checked once every --set is applied, not per --set.
        from repro.api.cli import _spec_from_args, build_parser

        spec_file = tmp_path / "dram.json"
        spec_file.write_text(json.dumps(ScenarioSpec(backend=BackendChoice(name="dram")).to_dict()))
        option = ["--set", "backend.options.row_cache_capacity_bytes=65536"]
        name = ["--set", "backend.name=sdm"]
        specs = [
            _spec_from_args(build_parser().parse_args(["run", "--spec", str(spec_file), *sets]), {})
            for sets in (option + name, name + option)
        ]
        assert specs[0] == specs[1]
        assert specs[0].backend == BackendChoice("sdm", {"row_cache_capacity_bytes": 65536})
        assert cli_main(["run", "--spec", str(spec_file), *SMALL_RUN, *option, *name]) == 0
        capsys.readouterr()
        assert cli_main(["run", "--spec", str(spec_file), *SMALL_RUN, *option]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the 'dram' backend takes no options")
        assert len(err.strip().splitlines()) == 1

    def test_device_field_beside_tiers_is_a_user_error(self, capsys):
        argv = ["run", *SMALL_RUN, "--tiers", "dram:64KiB,nand:1GiB",
                "--set", "backend.options.num_devices=4"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown SDM options ['num_devices']")
        assert len(err.strip().splitlines()) == 1

    def test_bad_set_path_is_a_user_error(self, capsys):
        assert cli_main(["run", "--set", "serving.concurency=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ServingChoice has no field 'concurency'")
        assert cli_main(["run", "--set", "serving.concurrency"]) == 2
        assert "param=value" in capsys.readouterr().err


def _reseeded(model, seed):
    """``model`` with every table's values and both MLPs' weights drawn
    from another seed: the same structure, different numbers."""
    from repro.dlrm import MLP, DLRMModel, EmbeddingTable

    def mlp(original):
        return MLP(original.layer_sizes, seed=seed, name=original.name)

    return DLRMModel(
        name=model.name,
        bottom_mlp=mlp(model.bottom_mlp),
        top_mlp=mlp(model.top_mlp),
        tables={name: EmbeddingTable.random(t.spec, seed=seed) for name, t in model.tables.items()},
        dense_dim=model.dense_dim,
        item_batch=model.item_batch,
    )


class TestTableValuesMoveNoSimulatedMetric:
    """Metamorphic: changing only the embedding values and MLP weights moves
    no simulated metric.  Every result the paper reports is a time or a
    count, so the timing plane must not read a value."""

    SPECS = {
        "sdm": {},
        "sdm-64KiB-cache": {
            "backend": {"name": "sdm", "options": {"row_cache_capacity_bytes": 64 * 1024}}
        },
        "pooled": {"backend": {"name": "sdm", "options": POOLED_SDM_OPTIONS}},
        "tiered-3-promote-all-split": {
            "backend": {"name": "tiered", "options": {"promotion": "all", "split_rows": True}}
        },
        "dram-open": {
            "backend": {"name": "dram"},
            "traffic": {"mode": "open", "offered_qps": 4000.0},
        },
        "sdm-open-warm": {
            "traffic": {"mode": "open", "offered_qps": 4000.0},
            "serving": {"warmup_queries": 20},
        },
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_reseeded_values_give_a_byte_equal_result(self, name):
        spec = ScenarioSpec.from_dict(
            {
                "model": {"max_rows_per_table": 512},
                "workload": {"num_queries": 80},
                "serving": {"warmup_queries": 0},
                **self.SPECS[name],
            }
        )
        original = Session(spec)
        reseeded = Session(spec)
        model = _reseeded(original.model, seed=7)
        assert not any(
            np.array_equal(model.table(t).data, original.model.table(t).data) for t in model.tables
        )
        assert not np.array_equal(model.top_mlp.weights[0], original.model.top_mlp.weights[0])
        reseeded.adopt_backend(model)
        expected = json.dumps(original.run().to_dict(), sort_keys=True)
        assert json.dumps(reseeded.run().to_dict(), sort_keys=True) == expected
