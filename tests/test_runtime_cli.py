"""``python -m repro campaign`` / ``compare``: the CLI over the runtime layer."""

import json

import pytest

from repro.api.cli import main as cli_main

BASE_ARGS = [
    "--set", "model.max_rows_per_table=256", "--set", "workload.num_queries=12",
    "--set", "serving.warmup_queries=0", "--set", "workload.num_users=40",
]


def run_json(capsys, argv, expect=0):
    assert cli_main(argv) == expect
    return json.loads(capsys.readouterr().out)


class TestCampaignCLI:
    def test_two_axis_campaign_runs_every_point(self, capsys, tmp_path):
        payload = run_json(
            capsys,
            ["campaign", *BASE_ARGS,
             "--grid", "backend.name=dram,sdm",
             "--grid", "serving.concurrency=1,2",
             "--out", str(tmp_path / "run"), "--quiet", "--json"],
        )
        assert len(payload) == 4
        assert [point["cached"] for point in payload] == [False] * 4
        assert {tuple(dict(point["coords"]).values()) for point in payload} == {
            ("dram", 1), ("dram", 2), ("sdm", 1), ("sdm", 2),
        }
        assert all(point["result"]["achieved_qps"] > 0 for point in payload)

    def test_resume_serves_every_point_from_the_store(self, capsys, tmp_path):
        argv = ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
                "--out", str(tmp_path / "run"), "--quiet", "--json"]
        first = run_json(capsys, argv)
        second = run_json(capsys, argv[:-2] + ["--resume", "--json"])
        assert [point["cached"] for point in first] == [False, False]
        assert [point["cached"] for point in second] == [True, True]
        assert [p["result"] for p in first] == [p["result"] for p in second]

    def test_existing_store_without_resume_is_refused(self, capsys, tmp_path):
        argv = ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1",
                "--out", str(tmp_path / "run"), "--quiet", "--json"]
        run_json(capsys, argv)
        assert cli_main(argv) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_out_is_an_error(self, capsys):
        assert cli_main(["campaign", *BASE_ARGS,
                         "--grid", "serving.concurrency=1", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_device_axis_on_a_tiered_spec_fails_before_any_point(self, capsys, tmp_path):
        # A tier list is the whole geometry: the two-tier device fields are
        # not options, so an axis over one is a user error, and no point runs.
        argv = ["campaign", *BASE_ARGS, "--tiers", "dram:64KiB,nand:1GiB",
                "--grid", "backend.options.num_devices=1,4",
                "--out", str(tmp_path / "run"), "--quiet"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown SDM options ['num_devices']")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("runtime", ["dry", "serial"])
    @pytest.mark.parametrize(
        "grid,names",
        [
            ("backend.name=dram,nosuch", "available backends: ['dram', 'sdm', 'tiered']"),
            ("backend.options.row_cach_capacity_bytes=1,2", "'row_cache_capacity_bytes'"),
        ],
    )
    def test_a_misspelt_backend_or_option_fails_before_any_point(
        self, capsys, tmp_path, runtime, grid, names
    ):
        argv = ["campaign", *BASE_ARGS, "--grid", grid, "--runtime", runtime,
                "--out", str(tmp_path / "run"), "--quiet"]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and names in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "planned" not in captured.out
        assert not (tmp_path / "run").exists()

    def test_malformed_grid_is_a_user_error(self, capsys):
        assert cli_main(["campaign", *BASE_ARGS, "--grid", "serving.concurrency"]) == 2
        assert "param=v1,v2" in capsys.readouterr().err

    def test_offered_qps_axis_implies_open_loop(self, capsys):
        payload = run_json(
            capsys,
            ["campaign", *BASE_ARGS, "--grid", "traffic.offered_qps=100,400",
             "--quiet", "--json"],
        )
        assert [point["result"]["traffic_mode"] for point in payload] == ["open", "open"]
        qps = [point["result"]["achieved_qps"] for point in payload]
        assert qps[0] != qps[1]

    def test_campaign_table_output(self, capsys):
        assert cli_main(
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
             "--metric", "achieved_qps", "--metric", "num_queries", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving.concurrency" in out
        assert "achieved_qps" in out and "num_queries" in out

    @pytest.mark.parametrize("metric", ["achieved_qpz", "latency", "host_result"])
    def test_unknown_table_metric_is_a_user_error_before_any_point_runs(
        self, capsys, metric
    ):
        assert cli_main(
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1",
             "--metric", metric]
        ) == 2
        err = capsys.readouterr().err
        assert f"error: unknown metric path {metric!r}" in err
        assert "[1/1]" not in err  # no progress line: nothing ran

    def test_nested_table_metric_prints_its_digits(self, capsys):
        assert cli_main(
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
             "--metric", "latency_seconds.p99", "--quiet"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "latency_seconds.p99" in lines[1]
        p99_cells = [line.split("|")[-1].strip() for line in lines[3:]]
        assert len(p99_cells) == 2
        assert all(float(cell) > 0 for cell in p99_cells)

    def test_progress_lands_on_stderr(self, capsys, tmp_path):
        assert cli_main(
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
             "--out", str(tmp_path / "run")]
        ) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err and "(ran)" in err

    def test_parallel_flag_produces_identical_results(self, capsys):
        argv = ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
                "--quiet", "--json"]
        serial = run_json(capsys, argv)
        parallel = run_json(capsys, argv + ["--parallel", "2"])
        assert [p["result"] for p in serial] == [p["result"] for p in parallel]

    def test_non_positive_parallel_is_a_user_error(self, capsys):
        assert cli_main(["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
                         "--parallel", "0"]) == 2
        assert "--parallel must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("runtime", ["serial", "dry"])
    def test_parallel_with_a_poolless_runtime_is_a_user_error(self, capsys, runtime):
        assert cli_main(["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
                         "--runtime", runtime, "--parallel", "4"]) == 2
        assert f"--runtime {runtime} runs no pool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--grid", "serving.concurrency=1,2", "--grid", "serving.concurrency=4"],
            ["--grid", "serving.concurrency=1,2",
             "--set", "workload.num_users=50", "--set", "workload.num_users=60"],
            ["--grid", "serving.concurrency=1,2", "--set", "serving.concurrency=4"],
        ],
        ids=["grid-twice", "set-twice", "set-and-grid"],
    )
    def test_repeated_path_is_a_user_error(self, capsys, argv):
        """A path given twice would silently drop one of its values."""
        assert cli_main(["campaign", *BASE_ARGS, *argv]) == 2
        err = capsys.readouterr().err
        assert "'serving.concurrency'" in err or "'workload.num_users'" in err

    def test_no_reuse_flag_produces_identical_results(self, capsys):
        # BASE_ARGS less its workload.num_users, which is the axis here.
        argv = ["campaign", *BASE_ARGS[:6], "--grid", "workload.num_users=40,60",
                "--quiet", "--json"]
        reused = run_json(capsys, argv)
        fresh = run_json(capsys, argv + ["--no-reuse"])
        assert [p["result"] for p in reused] == [p["result"] for p in fresh]

    def test_dry_runtime_plans_without_executing(self, capsys, tmp_path):
        assert cli_main(
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
             "--runtime", "dry", "--out", str(tmp_path / "run"), "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "dry run, 2 point(s) planned" in out
        assert "serving.concurrency=1" in out and "serving.concurrency=2" in out
        # Nothing executed, nothing persisted (only the campaign metadata).
        assert not list((tmp_path / "run").glob("results*.jsonl"))

    def test_quarantined_point_fails_the_exit_code(self, capsys, tmp_path):
        """A raising point is reported and quarantined; siblings persist."""
        assert cli_main(
            ["campaign", *BASE_ARGS,
             "--grid", "backend.options.row_cache_capacity_bytes=4096,bogus",
             "--out", str(tmp_path / "run"), "--quiet"]
        ) == 1
        captured = capsys.readouterr()
        assert "1 point(s) quarantined" in captured.err
        assert "TypeError" in captured.err
        # The good sibling's row still rendered and persisted.
        assert "4096" in captured.out
        lines = (tmp_path / "run" / "results.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_quarantine_in_json_mode_reports_status_and_error(self, capsys):
        payload = run_json(
            capsys,
            ["campaign", *BASE_ARGS,
             "--grid", "backend.options.row_cache_capacity_bytes=4096,bogus",
             "--quiet", "--json"],
            expect=1,
        )
        assert [point["status"] for point in payload] == ["ok", "failed"]
        assert payload[0]["result"]["achieved_qps"] > 0
        assert payload[1]["result"] is None
        assert payload[1]["error_type"] == "TypeError"

    def test_retries_flag_is_threaded_through(self, capsys):
        payload = run_json(
            capsys,
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1",
             "--retries", "2", "--runtime", "serial", "--quiet", "--json"],
        )
        assert [point["attempts"] for point in payload] == [1]


class TestCompareCLI:
    def _populate(self, capsys, out_dir):
        run_json(
            capsys,
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=1,2",
             "--out", str(out_dir), "--quiet", "--json"],
        )

    def test_self_compare_has_zero_regressions_and_exit_zero(self, capsys, tmp_path):
        self._populate(capsys, tmp_path / "run")
        payload = run_json(
            capsys,
            ["compare", str(tmp_path / "run"), str(tmp_path / "run"), "--json"],
        )
        assert payload["num_regressions"] == 0
        assert payload["compared_points"] == 2

    def test_regression_fails_the_exit_code(self, capsys, tmp_path):
        self._populate(capsys, tmp_path / "base")
        # Forge a degraded candidate from the baseline's own records.
        base_lines = (tmp_path / "base" / "results.jsonl").read_text().splitlines()
        (tmp_path / "cand").mkdir()
        with open(tmp_path / "cand" / "results.jsonl", "w") as handle:
            for line in base_lines:
                record = json.loads(line)
                record["result"]["achieved_qps"] *= 0.5
                handle.write(json.dumps(record) + "\n")
        assert cli_main(
            ["compare", str(tmp_path / "base"), str(tmp_path / "cand")]
        ) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_runs_with_no_point_in_common_exit_two(self, capsys, tmp_path):
        self._populate(capsys, tmp_path / "base")
        run_json(
            capsys,
            ["campaign", *BASE_ARGS, "--grid", "serving.concurrency=3",
             "--out", str(tmp_path / "other"), "--quiet", "--json"],
        )
        assert cli_main(
            ["compare", str(tmp_path / "base"), str(tmp_path / "other")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no point of") and err.count("\n") == 1

    def test_missing_run_directory_is_a_user_error(self, capsys, tmp_path):
        assert cli_main(
            ["compare", str(tmp_path / "none"), str(tmp_path / "none")]
        ) == 2
        assert "results.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["latency_seconds.p99", "achieved_qps:higher"])
    def test_custom_metrics(self, capsys, tmp_path, metric):
        self._populate(capsys, tmp_path / "run")
        payload = run_json(
            capsys,
            ["compare", str(tmp_path / "run"), str(tmp_path / "run"),
             "--metric", metric, "--json"],
        )
        path = metric.split(":")[0]
        assert {delta["metric"] for delta in payload["deltas"]} == {path}

    @pytest.mark.parametrize(
        "metric", ["achieved_qsp", "backend_stats.nonexistent", "power"]
    )
    def test_a_metric_that_compares_nothing_is_a_user_error(
        self, capsys, tmp_path, metric
    ):
        self._populate(capsys, tmp_path / "run")
        assert cli_main(
            ["compare", str(tmp_path / "run"), str(tmp_path / "run"),
             "--metric", metric]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
