"""Unit tests of the repro.obs trace recorders and the Chrome-trace export."""

import json

import pytest

from repro.obs.trace import (
    NULL_RECORDER,
    SIM_PID,
    ChromeTraceRecorder,
    TraceRecorder,
    validate_chrome_trace,
)


class TestNullRecorder:
    def test_disabled_and_silent(self):
        recorder = TraceRecorder()
        assert recorder.enabled is False
        # Every emission is a no-op; nothing raises, nothing is stored.
        recorder.set_track(3)
        recorder.pause()
        recorder.resume()
        recorder.span("s", "cat", 0.0, 1.0)
        recorder.instant("i", "cat", 0.0)
        recorder.counter("c", 0.0, {"depth": 1})

    def test_shared_singleton_stays_disabled(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.resume()
        assert NULL_RECORDER.enabled is False


class TestChromeTraceRecorder:
    def test_span_converts_seconds_to_microseconds(self):
        recorder = ChromeTraceRecorder()
        recorder.span("serve", "engine", 0.25, 0.5, tid=2, args={"query_id": 7})
        trace = recorder.to_chrome_trace()
        [event] = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event == {
            "name": "serve",
            "cat": "engine",
            "ph": "X",
            "ts": 0.25e6,
            "dur": 0.5e6,
            "pid": SIM_PID,
            "tid": 2,
            "args": {"query_id": 7},
        }

    def test_default_track_follows_set_track(self):
        recorder = ChromeTraceRecorder()
        recorder.set_track(5)
        recorder.span("s", "c", 0.0, 1.0)
        [event] = [e for e in recorder.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
        assert event["tid"] == 5

    def test_instant_and_counter_phases(self):
        recorder = ChromeTraceRecorder()
        recorder.instant("drop", "engine", 1.0, tid=0, args={"query_id": 3})
        recorder.counter("admission", 1.0, {"queue_depth": 4})
        events = {e["ph"]: e for e in recorder.to_chrome_trace()["traceEvents"] if e["ph"] in "iC"}
        assert events["i"]["s"] == "t"
        assert events["C"]["args"] == {"queue_depth": 4}

    def test_pause_resume_excludes_spans_and_restores_state(self):
        recorder = ChromeTraceRecorder()
        recorder.pause()
        recorder.span("warmup", "engine", 0.0, 1.0)
        assert len(recorder) == 0
        recorder.resume()
        assert recorder.enabled is True
        recorder.span("measured", "engine", 1.0, 1.0)
        assert len(recorder) == 1

    def test_resume_restores_disabled_state(self):
        # A recorder the caller switched off stays off across warmup.
        recorder = ChromeTraceRecorder()
        recorder.enabled = False
        recorder.pause()
        recorder.resume()
        assert recorder.enabled is False

    def test_event_cap_counts_drops_instead_of_growing(self):
        recorder = ChromeTraceRecorder(max_events=2)
        for i in range(5):
            recorder.span(f"s{i}", "c", float(i), 1.0)
        assert len(recorder) == 2
        assert recorder.dropped_events == 3
        assert recorder.to_chrome_trace()["otherData"]["dropped_events"] == 3

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError, match="max_events"):
            ChromeTraceRecorder(max_events=0)

    def test_thread_metadata_names_tracks(self):
        recorder = ChromeTraceRecorder()
        recorder.name_thread(1, "stream 0")
        threads = {
            e["tid"]: e["args"]["name"]
            for e in recorder.to_chrome_trace()["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads == {0: "admission", 1: "stream 0"}

    def test_write_creates_parents_and_valid_json(self, tmp_path):
        recorder = ChromeTraceRecorder()
        recorder.span("s", "c", 0.0, 1.0)
        out = recorder.write(tmp_path / "deep" / "trace.json")
        loaded = json.loads(out.read_text(encoding="utf-8"))
        validate_chrome_trace(loaded)


class TestValidateChromeTrace:
    def test_accepts_recorder_output(self):
        recorder = ChromeTraceRecorder()
        recorder.span("s", "c", 0.0, 1.0)
        recorder.instant("i", "c", 0.0)
        recorder.counter("n", 0.0, {"v": 1})
        validate_chrome_trace(recorder.to_chrome_trace())

    def test_rejects_missing_container(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_event_without_phase(self):
        with pytest.raises(ValueError, match="'ph'"):
            validate_chrome_trace({"traceEvents": [{"pid": 0, "tid": 0}]})

    def test_rejects_complete_event_without_duration(self):
        event = {"name": "s", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [event]})
