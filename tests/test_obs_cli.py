"""CLI surfaces of repro.obs: ``run --trace-out/--timeline-out``,
``python -m repro report``, and the campaign progress line."""

import json

import pytest

from repro.api.cli import main as cli_main
from repro.obs.trace import validate_chrome_trace

SMALL_ARGS = [
    "--set", "model.max_rows_per_table=256", "--set", "serving.warmup_queries=0",
    "--set", "workload.num_users=40",
]
RUN_ARGS = [
    "run", *SMALL_ARGS, "--set", "workload.num_queries=16", "--arrival", "constant",
    "--set", "traffic.offered_qps=400.0", "--set", "traffic.queue_depth=4",
]


class TestRunTelemetryFlags:
    def test_trace_out_writes_a_loadable_chrome_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "deep" / "trace.json"
        assert cli_main([*RUN_ARGS, "--trace-out", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert str(trace_path) in captured.err
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        validate_chrome_trace(trace)
        assert any(e.get("name") == "serve" for e in trace["traceEvents"])

    def test_timeline_out_writes_window_json(self, capsys, tmp_path):
        timeline_path = tmp_path / "timeline.json"
        assert (
            cli_main(
                [*RUN_ARGS, "--set", "telemetry.sample_interval=0.01",
                 "--timeline-out", str(timeline_path)]
            )
            == 0
        )
        timeline = json.loads(timeline_path.read_text(encoding="utf-8"))
        assert timeline["num_windows"] == len(timeline["windows"]) >= 1
        assert timeline["interval_seconds"] == 0.01

    def test_timeline_out_without_interval_is_a_user_error(self, capsys, tmp_path):
        assert (
            cli_main([*RUN_ARGS, "--timeline-out", str(tmp_path / "t.json")]) == 2
        )
        assert "telemetry.sample_interval" in capsys.readouterr().err

    def test_json_result_carries_the_timeline(self, capsys):
        assert cli_main([*RUN_ARGS, "--set", "telemetry.sample_interval=0.01", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeline"]["num_windows"] >= 1

    def test_plain_run_is_untouched_by_telemetry_flags(self, capsys):
        # No flags -> no timeline in the JSON result, no telemetry stderr.
        assert cli_main([*RUN_ARGS, "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["timeline"] is None
        assert captured.err == ""


class TestReportCommand:
    @pytest.fixture()
    def result_file(self, capsys, tmp_path):
        assert cli_main([*RUN_ARGS, "--set", "telemetry.sample_interval=0.01", "--json"]) == 0
        path = tmp_path / "result.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        return path

    def test_report_renders_summary_and_timeline_tables(self, capsys, result_file):
        assert cli_main(["report", str(result_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario:" in out
        assert "timeline:" in out and "served QPS" in out

    def test_report_json_is_structured(self, capsys, result_file):
        assert cli_main(["report", str(result_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["num_queries"] == 16
        assert report["timeline"]["num_windows"] == len(report["timeline"]["rows"])

    def test_report_over_a_campaign_directory(self, capsys, tmp_path):
        store = tmp_path / "run"
        assert (
            cli_main(
                ["campaign", *SMALL_ARGS, "--set", "workload.num_queries=12",
                 "--set", "telemetry.sample_interval=0.02",
                 "--grid", "serving.concurrency=1,2",
                 "--out", str(store), "--quiet"]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["report", str(store), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        assert all(entry["report"]["timeline"]["num_windows"] >= 1 for entry in reports)

    def test_report_rejects_non_result_json(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"not": "a result"}), encoding="utf-8")
        assert cli_main(["report", str(bogus)]) == 2
        assert "not a stored result" in capsys.readouterr().err

    def test_report_rejects_empty_directory(self, capsys, tmp_path):
        assert cli_main(["report", str(tmp_path)]) == 2
        assert "no campaign results" in capsys.readouterr().err


class TestCampaignProgress:
    def test_progress_lands_on_stderr(self, capsys, tmp_path):
        assert (
            cli_main(
                ["campaign", *SMALL_ARGS, "--set", "workload.num_queries=12",
                 "--grid", "serving.concurrency=1,2",
                 "--out", str(tmp_path / "run")]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err
        assert "(ran)" in err

    def test_quiet_suppresses_progress(self, capsys, tmp_path):
        assert (
            cli_main(
                ["campaign", *SMALL_ARGS, "--set", "workload.num_queries=12",
                 "--grid", "serving.concurrency=1",
                 "--out", str(tmp_path / "run"), "--quiet"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[1/1]" not in err
