"""Tests for the query generator."""

import hashlib

import numpy as np
import pytest

from repro.api import ScenarioSpec, Session
from repro.dlrm import Bags
from repro.workload import QueryGenerator, WorkloadConfig, generate_arrival_times

from helpers import small_model
from test_workload_zipf import ReferenceZipf


def assert_same_query(actual, expected):
    """Two generated queries are equal field for field, index for index."""
    assert actual.query_id == expected.query_id
    assert actual.user_id == expected.user_id
    assert list(actual.user_indices) == list(expected.user_indices)
    for name, indices in expected.user_indices.items():
        assert actual.user_indices[name].dtype == np.int64
        assert np.array_equal(actual.user_indices[name], indices)
    assert list(actual.item_indices) == list(expected.item_indices)
    for name, bags in expected.item_indices.items():
        assert isinstance(actual.item_indices[name], Bags)
        assert np.array_equal(actual.item_indices[name].indices, bags.indices)
        assert np.array_equal(actual.item_indices[name].offsets, bags.offsets)
    assert np.array_equal(actual.dense_features, expected.dense_features)


def stream_digest(model, queries):
    """SHA-256 over user ids, each table's flat indices and bag lengths (in
    ``model.table_specs`` order) and the dense-feature bytes."""
    digest = hashlib.sha256()
    digest.update(np.array([query.user_id for query in queries], dtype=np.int64).tobytes())
    for spec in model.table_specs:
        if spec.is_user:
            bags = [query.user_indices[spec.name] for query in queries]
            flat, lengths = np.concatenate(bags), np.array([bag.size for bag in bags])
        else:
            bags = [query.item_indices[spec.name] for query in queries]
            flat = np.concatenate([bag.indices for bag in bags])
            lengths = np.concatenate([bag.lengths for bag in bags])
        digest.update(flat.astype(np.int64).tobytes())
        digest.update(lengths.astype(np.int64).tobytes())
    digest.update(np.stack([query.dense_features for query in queries]).astype(np.float32).tobytes())
    return digest.hexdigest()


class TestWorkloadConfig:
    def test_defaults_valid(self):
        config = WorkloadConfig()
        assert config.item_batch > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(item_batch=0)
        with pytest.raises(ValueError):
            WorkloadConfig(num_users=0)
        with pytest.raises(ValueError):
            WorkloadConfig(sequence_repeat_probability=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(sequence_pool_size=0)
        with pytest.raises(ValueError):
            WorkloadConfig(pooling_factor_jitter=1.0)


class TestQueryGenerator:
    def test_queries_cover_all_tables(self):
        model = small_model()
        query = QueryGenerator(model, WorkloadConfig(item_batch=2)).generate(1)[0]
        assert set(query.user_indices) == {s.name for s in model.user_table_specs}
        assert set(query.item_indices) == {s.name for s in model.item_table_specs}

    def test_item_batch_respected(self):
        model = small_model()
        query = QueryGenerator(model, WorkloadConfig(item_batch=4)).generate(1)[0]
        assert query.item_batch == 4

    def test_item_batch_override_per_call(self):
        model = small_model()
        generator = QueryGenerator(model, WorkloadConfig(item_batch=4))
        assert generator.generate(1, item_batch=2)[0].item_batch == 2

    def test_indices_within_table_range(self):
        model = small_model(num_rows=64)
        queries = QueryGenerator(model, WorkloadConfig(item_batch=2)).generate(20)
        for query in queries:
            for name, indices in query.user_indices.items():
                assert max(indices) < model.table(name).spec.num_rows

    def test_indices_unique_within_request(self):
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=2)).generate(20)
        for query in queries:
            for indices in query.user_indices.values():
                assert len(indices) == len(set(indices))

    def test_pooling_factor_near_spec_average(self):
        model = small_model()
        generator = QueryGenerator(model, WorkloadConfig(item_batch=1))
        queries = generator.generate(200)
        spec = model.user_table_specs[0]
        lengths = [len(q.user_indices[spec.name]) for q in queries]
        assert abs(np.mean(lengths) - spec.avg_pooling_factor) < spec.avg_pooling_factor * 0.5

    def test_deterministic_given_seed(self):
        model = small_model()
        a = QueryGenerator(model, WorkloadConfig(item_batch=2), seed=5).generate(5)
        b = QueryGenerator(model, WorkloadConfig(item_batch=2), seed=5).generate(5)
        for qa, qb in zip(a, b):
            assert_same_query(qa, qb)

    def test_query_ids_increment(self):
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=2)).generate(5)
        assert [q.query_id for q in queries] == list(range(5))

    def test_sequence_repetition_produces_exact_repeats(self):
        model = small_model()
        config = WorkloadConfig(item_batch=1, sequence_repeat_probability=0.5)
        generator = QueryGenerator(model, config, seed=0)
        queries = generator.generate(200)
        table = model.user_table_specs[0].name
        seen = set()
        repeats = 0
        for query in queries:
            key = tuple(sorted(query.user_indices[table]))
            if key in seen:
                repeats += 1
            seen.add(key)
        assert repeats > 10

    def test_zero_repeat_probability_rarely_repeats(self):
        model = small_model(num_rows=4096)
        config = WorkloadConfig(
            item_batch=1,
            sequence_repeat_probability=0.0,
            user_reuse_probability=0.0,
        )
        generator = QueryGenerator(model, config, seed=0)
        queries = generator.generate(100)
        table = model.user_table_specs[0].name
        keys = [tuple(sorted(q.user_indices[table])) for q in queries]
        assert len(set(keys)) > 90

    def test_access_trace_flattens_user_and_item_accesses(self):
        model = small_model()
        generator = QueryGenerator(model, WorkloadConfig(item_batch=2))
        queries = generator.generate(10)
        user_table = model.user_table_specs[0].name
        item_table = model.item_table_specs[0].name
        user_trace = generator.access_trace(queries, user_table)
        item_trace = generator.access_trace(queries, item_table)
        assert len(user_trace) == sum(len(q.user_indices[user_table]) for q in queries)
        assert len(item_trace) == sum(
            len(indices) for q in queries for indices in q.item_indices[item_table]
        )

    def test_invalid_generate_count_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            QueryGenerator(model).generate(0)

    def test_generate_equals_one_query_at_a_time(self):
        # The batched per-purpose RNG draws must reproduce the one-query-at-a-
        # time stream exactly, whatever the chunking.
        model = small_model()
        whole = QueryGenerator(model, WorkloadConfig(item_batch=3), seed=7).generate(30)
        stepper = QueryGenerator(model, WorkloadConfig(item_batch=3), seed=7)
        single = [stepper.generate(1)[0] for _ in range(30)]
        chunker = QueryGenerator(model, WorkloadConfig(item_batch=3), seed=7)
        chunked = chunker.generate(11) + chunker.generate(19)
        for reference, a, b in zip(whole, single, chunked):
            for other in (a, b):
                assert_same_query(other, reference)

    @pytest.mark.parametrize("seed", [7, 19])
    def test_generate_equals_generator_driven_by_reference_sampler(self, seed):
        # Swap every read-ahead ZipfGenerator for the unbuffered NumPy
        # rejection sampler it replaced: ids, indices, dense features and
        # query ids must not move, one query at a time or all at once.
        model = small_model()
        config = WorkloadConfig(item_batch=3, num_users=50)

        def reference_driven():
            generator = QueryGenerator(model, config, seed=seed)
            generator._user_ids = ReferenceZipf(
                config.num_users, config.user_zipf_alpha, seed=seed
            )
            for spec in model.table_specs:
                generator._table_generators[spec.name] = ReferenceZipf(
                    spec.num_rows, spec.zipf_alpha, seed=seed
                )
            return generator

        whole = QueryGenerator(model, config, seed=seed).generate(120)
        stepper = QueryGenerator(model, config, seed=seed)
        single = [stepper.generate(1)[0] for _ in range(120)]
        reference = reference_driven().generate(120)
        stepping_reference = reference_driven()
        reference_single = [stepping_reference.generate(1)[0] for _ in range(120)]
        assert [query.query_id for query in whole] == list(range(120))
        for expected, *others in zip(reference, whole, single, reference_single):
            for other in others:
                assert_same_query(other, expected)

    def test_pooling_counts_match_scalar_rounding(self):
        # The vectorised count is max(int(round(avg * (1 + j * draw))), 1)
        # capped at num_rows, with Python's round-half-to-even.
        model = small_model()
        generator = QueryGenerator(model, WorkloadConfig(pooling_factor_jitter=0.5))
        specs = model.table_specs
        draws = np.array([[-1.0, 0.0, 1.0], [1 / 3, -0.5, 0.5], [1.0, 1.0, -1.0]])
        counts = generator._pooling_counts(specs, draws)
        for row, row_counts in zip(draws.tolist(), counts.tolist()):
            for spec, draw, count in zip(specs, row, row_counts):
                factor = spec.avg_pooling_factor * (1.0 + 0.5 * draw)
                assert count == min(max(int(round(factor)), 1), spec.num_rows)

    def test_golden_trace_pins_rng_stream(self):
        # Frozen sample of the named per-purpose RNG streams: any change to
        # stream naming, draw order or draw shapes shows up here first.
        model = small_model()
        queries = QueryGenerator(model, WorkloadConfig(item_batch=2), seed=42).generate(3)
        assert [query.user_id for query in queries] == [4701, 3789, 9086]
        assert queries[0].user_indices["user_0"].tolist() == [37, 143, 172, 254, 194]
        assert queries[1].user_indices["user_0"].tolist() == [37, 106, 139, 97, 87, 86]
        assert queries[2].user_indices["user_1"].tolist() == [42, 140, 206, 94]
        assert [bag.tolist() for bag in queries[0].item_indices["item_0"]] == [
            [14, 68],
            [152, 200, 227],
        ]
        assert queries[0].dense_features == pytest.approx(
            [0.852983, -0.196222, -0.510966, -0.897254], abs=1e-6
        )


#: ``stream_digest`` of 200 queries at seed 3 for the perf ledger's model
#: shapes (``perf/workloads.py``), computed with the per-slot list generator
#: this table-major one replaced.  ``warm-closed``, ``cold-closed`` and
#: ``tiered-open`` share one model shape and workload, hence one stream.
LEDGER_STREAM_DIGESTS = {
    "warm-closed/cold-closed/tiered-open": (
        {"max_tables_per_group": 8, "max_rows_per_table": 16384, "item_batch": 4},
        "9c7c489be393b67a304415533d2cc2f373ee1f1f7431745e645b69bad6da7be1",
    ),
    "dram-dense": (
        {"max_tables_per_group": 8, "max_rows_per_table": 16384, "item_batch": 16},
        "59f3a49ed11ed5fb5ab493a332ee19d043cffbb04d6996ab570a904428c33243",
    ),
    "campaign-grid": (
        {"max_tables_per_group": 6, "max_rows_per_table": 8192, "item_batch": 4},
        "377b6ed8b5e3568de73bc7f3a348edf3e6520ef8aaf4b3bacafabbbe5aa70916",
    ),
}


class TestLedgerStreams:
    @pytest.mark.parametrize("shape", sorted(LEDGER_STREAM_DIGESTS))
    def test_streams_are_pinned_whole_and_chunked(self, shape):
        model_options, expected = LEDGER_STREAM_DIGESTS[shape]
        spec = ScenarioSpec.from_dict(
            {
                "model": {"spec": "M1", **model_options},
                "workload": {"num_queries": 200, "num_users": 2000, "seed": 3},
            }
        )
        session = Session(spec)
        assert stream_digest(session.model, session.queries()) == expected
        chunked = Session(spec)
        chunked._model = session.model  # the stream depends on the specs only
        queries = chunked.generator.generate(73) + chunked.generator.generate(127)
        assert stream_digest(session.model, queries) == expected

    @pytest.mark.parametrize("chunks", [(40,), (1,) * 40, (13, 27), (3, 1, 36), (39, 1)])
    def test_any_chunking_gives_the_same_stream(self, chunks):
        # A small pool, frequent repeats and a small returning population
        # carry sequences across chunk boundaries through both the pool and
        # the user memory.
        model = small_model()
        config = WorkloadConfig(
            item_batch=3,
            num_users=6,
            sequence_pool_size=4,
            sequence_repeat_probability=0.4,
            user_reuse_probability=0.5,
        )
        whole = QueryGenerator(model, config, seed=2).generate(40)
        generator = QueryGenerator(model, config, seed=2)
        chunked = [query for size in chunks for query in generator.generate(size)]
        for actual, expected in zip(chunked, whole):
            assert_same_query(actual, expected)

    def test_queries_pools_and_memories_hold_read_only_int64_arrays(self):
        model = small_model()
        config = WorkloadConfig(item_batch=2, num_users=5, sequence_pool_size=3)
        generator = QueryGenerator(model, config, seed=0)
        queries = generator.generate(12) + generator.generate(5)
        first, last = queries[0], queries[-1]
        user_table = model.user_table_specs[0].name
        # One table's user arrays of a chunk are views of one buffer.
        assert first.user_indices[user_table].base is queries[1].user_indices[user_table].base
        arrays = [indices for query in queries for indices in query.user_indices.values()]
        arrays += [bags.indices for query in queries for bags in query.item_indices.values()]
        arrays += [array for pool in generator._sequence_pools.values() for array in pool]
        arrays += [
            array for memory in generator._user_memory.values() for array in memory.values()
        ]
        assert all(array.dtype == np.int64 for array in arrays)
        assert not any(array.flags.writeable for array in arrays)
        assert all(len(pool) == 3 for pool in generator._sequence_pools.values())
        assert isinstance(last.item_indices[model.item_table_specs[0].name], Bags)


class TestGenerateArrivalTimes:
    def test_constant_spacing(self):
        times = generate_arrival_times(5, process="constant", offered_qps=10.0)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_poisson_mean_rate_and_determinism(self):
        times = generate_arrival_times(2000, process="poisson", offered_qps=100.0, seed=1)
        again = generate_arrival_times(2000, process="poisson", offered_qps=100.0, seed=1)
        assert isinstance(times, np.ndarray)
        assert np.array_equal(times, again)
        assert times[0] == pytest.approx(0.0)
        assert all(b >= a for a, b in zip(times, times[1:]))
        measured_rate = (len(times) - 1) / (times[-1] - times[0])
        assert measured_rate == pytest.approx(100.0, rel=0.1)

    def test_poisson_different_seeds_differ(self):
        a = generate_arrival_times(50, process="poisson", offered_qps=10.0, seed=0)
        b = generate_arrival_times(50, process="poisson", offered_qps=10.0, seed=1)
        assert not np.array_equal(a, b)

    def test_trace_replay_and_start_offset(self):
        trace = [0.0, 0.5, 1.5, 9.0]
        times = generate_arrival_times(3, process="trace", trace=trace, start_time=1.0)
        assert times == pytest.approx([1.0, 1.5, 2.5])

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            generate_arrival_times(0, process="constant", offered_qps=1.0)
        with pytest.raises(ValueError):
            generate_arrival_times(5, process="warp-drive", offered_qps=1.0)
        with pytest.raises(ValueError):
            generate_arrival_times(5, process="poisson", offered_qps=0.0)
        with pytest.raises(ValueError):
            generate_arrival_times(5, process="constant", offered_qps=None)
        with pytest.raises(ValueError):
            generate_arrival_times(5, process="trace", trace=[0.0, 1.0])  # too short
        with pytest.raises(ValueError):
            generate_arrival_times(2, process="trace", trace=[1.0, 0.5])  # decreasing
        with pytest.raises(ValueError):
            generate_arrival_times(1, process="constant", offered_qps=1.0, start_time=-1.0)
