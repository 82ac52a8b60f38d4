"""ExperimentStore: durable JSONL records keyed by canonical spec hash."""

import json

from repro import ExperimentStore, ScenarioSpec


def result_dict(**overrides):
    base = {
        "scenario": "s",
        "backend": "dram",
        "num_queries": 10,
        "concurrency": 1,
        "makespan_seconds": 0.5,
        "achieved_qps": 20.0,
        "latency_seconds": {"mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.03},
        "meets_slo": True,
        "slo_headroom": 0.5,
        "backend_stats": {},
        "power": None,
        "traffic_mode": "closed",
        "offered_qps": None,
        "dropped_queries": 0,
        "queueing_seconds": None,
    }
    base.update(overrides)
    return base


class TestExperimentStore:
    def test_put_then_get_round_trips(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="point-a")
        record = store.put(spec, result_dict(), index=3, coords=[("p", 1)])
        assert store.get(spec.spec_hash()) == record
        assert store.get(spec.spec_hash()) == record
        assert record["index"] == 3
        assert record["coords"] == [["p", 1]]
        assert spec.spec_hash() in store
        assert len(store) == 1

    def test_records_survive_a_fresh_handle(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="durable")
        store.put(spec, result_dict())
        reopened = ExperimentStore(tmp_path / "run")
        assert reopened.get(spec.spec_hash())["result"]["achieved_qps"] == 20.0

    def test_last_record_wins_for_duplicate_hashes(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="dup")
        store.put(spec, result_dict(achieved_qps=1.0))
        store.put(spec, result_dict(achieved_qps=2.0))
        reopened = ExperimentStore(tmp_path / "run")
        assert reopened.get(spec.spec_hash())["result"]["achieved_qps"] == 2.0
        assert len(reopened) == 1

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        """A crash mid-append must not poison the completed records."""
        store = ExperimentStore(tmp_path / "run")
        good = ScenarioSpec(name="good")
        store.put(good, result_dict())
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "deadbeef", "result": {"achie')  # no newline
        reopened = ExperimentStore(tmp_path / "run")
        assert len(reopened) == 1
        assert reopened.get(good.spec_hash()) is not None
        assert reopened.get("deadbeef") is None

    def test_blank_lines_and_missing_hash_tolerated(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="ok")
        store.put(spec, result_dict())
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write("\n")
            handle.write(json.dumps({"no_hash": True}) + "\n")
        assert len(ExperimentStore(tmp_path / "run")) == 1

    def test_missing_directory_reads_as_empty(self, tmp_path):
        store = ExperimentStore(tmp_path / "nowhere")
        assert not store.exists()
        assert len(store) == 0
        assert store.get("anything") is None

    def test_campaign_metadata_round_trip(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        assert not store.campaign_path.exists()
        meta = {"name": "c", "axes": [{"param": "x", "values": [1, 2]}]}
        store.write_campaign(meta)
        assert json.loads(store.campaign_path.read_text()) == meta


class TestShardedStore:
    def test_put_with_shard_writes_that_shard_only(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="sharded")
        store.put(spec, result_dict(), shard="w7")
        assert not store.results_path.exists()
        assert store.shard_path("w7").exists()
        assert [p.name for p in store.shard_paths()] == ["results-w7.jsonl"]
        assert store.exists()

    def test_shards_merge_with_the_main_file_on_read(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        main_spec = ScenarioSpec(name="from-main")
        shard_a = ScenarioSpec(name="from-a")
        shard_b = ScenarioSpec(name="from-b")
        store.put(main_spec, result_dict(achieved_qps=1.0))
        store.put(shard_a, result_dict(achieved_qps=2.0), shard="w1")
        store.put(shard_b, result_dict(achieved_qps=3.0), shard="w2")
        reopened = ExperimentStore(tmp_path / "run")
        assert len(reopened) == 3
        assert reopened.get(main_spec.spec_hash())["result"]["achieved_qps"] == 1.0
        assert reopened.get(shard_a.spec_hash())["result"]["achieved_qps"] == 2.0
        assert reopened.get(shard_b.spec_hash())["result"]["achieved_qps"] == 3.0

    def test_merge_order_is_deterministic_main_then_sorted_shards(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="dup")
        # Same spec hash in the main file and two shards: shards merge after
        # the main file in name-sorted order, so the lexically-last shard wins.
        store.put(spec, result_dict(achieved_qps=1.0))
        store.put(spec, result_dict(achieved_qps=3.0), shard="w2")
        store.put(spec, result_dict(achieved_qps=2.0), shard="w1")
        reopened = ExperimentStore(tmp_path / "run")
        assert len(reopened) == 1
        assert reopened.get(spec.spec_hash())["result"]["achieved_qps"] == 3.0
        assert [p.name for p in reopened.result_paths()] == [
            "results.jsonl",
            "results-w1.jsonl",
            "results-w2.jsonl",
        ]

    def test_legacy_single_file_store_reads_unchanged(self, tmp_path):
        """A store written before sharding existed is just a main file."""
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="legacy")
        store.put(spec, result_dict())
        reopened = ExperimentStore(tmp_path / "run")
        assert reopened.shard_paths() == []
        assert len(reopened) == 1
        assert reopened.get(spec.spec_hash()) is not None

    def test_truncated_shard_line_is_skipped(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        good = ScenarioSpec(name="good")
        store.put(good, result_dict(), shard="w1")
        with open(store.shard_path("w1"), "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "deadbeef", "result": {"achie')
        reopened = ExperimentStore(tmp_path / "run")
        assert len(reopened) == 1
        assert reopened.get("deadbeef") is None

    def test_register_updates_memory_without_touching_disk(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        spec = ScenarioSpec(name="registered")
        record = store.register(spec, result_dict(), index=1, coords=[("p", 2)])
        assert store.get(spec.spec_hash()) == record
        assert record["coords"] == [["p", 2]]
        assert not store.result_paths()
        assert len(ExperimentStore(tmp_path / "run")) == 0

    def test_invalid_shard_names_are_rejected(self, tmp_path):
        store = ExperimentStore(tmp_path / "run")
        for bad in ("", "a/b", "../escape"):
            try:
                store.shard_path(bad)
            except ValueError:
                continue
            raise AssertionError(f"shard name {bad!r} was accepted")
