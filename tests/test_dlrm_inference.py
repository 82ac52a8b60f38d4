"""Tests for the inference engine and the DRAM reference backend."""

import numpy as np
import pytest

from repro.dlrm import (
    ComputeSpec,
    EmbeddingTable,
    EmbeddingTableSpec,
    InMemoryBackend,
    InferenceEngine,
    Query,
)

from helpers import pack_bags, small_model, small_queries


class LoopBackend(InMemoryBackend):
    """DRAM backend that serves a batch as one ``serve`` per sample, each
    starting when the one before completes: the reference the array-shaped
    ``serve_batch`` must reproduce exactly."""

    def serve_batch(self, requests, start_time):
        sizes = {len(bags) for bags in requests.values()}
        if len(sizes) > 1:
            raise ValueError(f"tables disagree on batch size: {sorted(sizes)}")
        cursor = start_time
        for position in range(sizes.pop() if sizes else 0):
            cursor = self.serve(
                {table_name: bags[position] for table_name, bags in requests.items()}, cursor
            )
        return cursor


def _mixed_width_tables():
    specs = [
        EmbeddingTableSpec(name="wide", num_rows=64, dim=16, quant_bits=8, is_user=False),
        EmbeddingTableSpec(name="narrow", num_rows=48, dim=12, quant_bits=4, is_user=False),
    ]
    return {spec.name: EmbeddingTable.random(spec, seed=2) for spec in specs}


class TestComputeSpec:
    def test_mlp_time(self):
        compute = ComputeSpec(flops_per_second=1e9)
        assert compute.mlp_time(1e6) == pytest.approx(1e-3)

    def test_embedding_read_time_scales_with_lookups(self):
        compute = ComputeSpec()
        assert compute.embedding_read_time(20, 128) > compute.embedding_read_time(10, 128)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeSpec(flops_per_second=0)
        with pytest.raises(ValueError):
            ComputeSpec(memory_bandwidth=0)
        with pytest.raises(ValueError):
            ComputeSpec(dequant_bytes_per_second=0)
        with pytest.raises(ValueError):
            ComputeSpec(per_lookup_overhead=-1)


class TestQuery:
    def test_item_batch_derived_from_indices(self):
        model = small_model(item_batch=3)
        query = small_queries(model, 1)[0]
        assert query.item_batch == 3

    def test_inconsistent_item_batch_rejected(self):
        query = Query(
            query_id=0,
            user_id=1,
            dense_features=np.zeros(4, dtype=np.float32),
            user_indices={"u": np.array([0])},
            item_indices={"a": pack_bags([[0]]), "b": pack_bags([[0], [1]])},
        )
        with pytest.raises(ValueError):
            query.item_batch

    def test_lookup_counters(self):
        model = small_model(item_batch=2)
        query = small_queries(model, 1)[0]
        assert query.total_user_lookups() == sum(
            len(v) for v in query.user_indices.values()
        )
        assert isinstance(query.total_user_lookups(), int)


class TestInMemoryBackend:
    def test_pooled_values_match_table_bag(self):
        # Serving returns the completion time only; the values are the
        # model's own bags, pooled when the scores are computed.
        model = small_model(item_batch=2)
        compute = ComputeSpec()
        backend = InMemoryBackend(model.tables, compute)
        requests = {name: [0, 2] for name in model.tables}
        done = backend.serve(requests, start_time=1.0)
        elapsed = 0.0
        for name in requests:
            elapsed += compute.embedding_read_time(2, model.table(name).spec.row_bytes)
        assert done == 1.0 + elapsed
        query = small_queries(model, 1)[0]
        user = {name: model.table(name).bag(rows) for name, rows in query.user_indices.items()}
        items = {
            name: np.stack([model.table(name).bag(bags[b]) for b in range(len(bags))])
            for name, bags in query.item_indices.items()
        }
        expected = model.score_batch(query.dense_features, user, items)
        assert np.array_equal(InferenceEngine(model, compute, backend).score(query), expected)

    def test_unknown_table_rejected(self):
        model = small_model()
        backend = InMemoryBackend(model.tables, ComputeSpec())
        with pytest.raises(KeyError):
            backend.serve({"nope": [0]}, 0.0)

    @pytest.mark.parametrize("batch", [1, 16])
    def test_batch_equals_per_sample_loop_bit_for_bit(self, batch):
        tables = _mixed_width_tables()
        batched = InMemoryBackend(tables, ComputeSpec())
        loop = LoopBackend(tables, ComputeSpec())
        rng = np.random.default_rng(batch)
        for _ in range(10):
            bags = {
                name: [
                    rng.integers(0, table.spec.num_rows, size=rng.integers(1, 13)).tolist()
                    for _ in range(batch)
                ]
                for name, table in tables.items()
            }
            bags["wide"][0] = [9] * len(bags["wide"][0])  # repeats inside a bag
            requests = {name: pack_bags(table_bags, name) for name, table_bags in bags.items()}
            done = batched.serve_batch(requests, start_time=0.125)
            assert done == loop.serve_batch(requests, start_time=0.125)
            assert done > 0.125

    def test_batch_of_no_tables_completes_at_once(self):
        for backend_type in (InMemoryBackend, LoopBackend):
            backend = backend_type(_mixed_width_tables(), ComputeSpec())
            assert backend.serve_batch({}, 2.0) == 2.0

    def test_sample_of_no_tables_completes_at_once(self):
        backend = InMemoryBackend(_mixed_width_tables(), ComputeSpec())
        assert backend.serve({}, 2.0) == 2.0

    @pytest.mark.parametrize("backend_type", [InMemoryBackend, LoopBackend])
    @pytest.mark.parametrize(
        "requests, error",
        [
            ({"wide": [[0], []]}, ValueError),  # empty bag, rejected when packed
            ({"wide": [[0], [64]]}, IndexError),  # out of range
            ({"wide": [[0], [-1]]}, IndexError),
            ({"nope": [[0]]}, KeyError),  # unknown table
            ({"wide": [[0], [1]], "narrow": [[0], [48]]}, IndexError),  # not the first table
            ({"wide": [[0]], "nope": [[0]]}, KeyError),
            ({"wide": [[0]], "narrow": [[0], [1]]}, ValueError),  # tables disagree on B
        ],
    )
    def test_batch_error_paths(self, backend_type, requests, error):
        backend = backend_type(_mixed_width_tables(), ComputeSpec())
        with pytest.raises(error):
            packed = {name: pack_bags(bags, name) for name, bags in requests.items()}
            backend.serve_batch(packed, 0.0)


class TestInferenceEngine:
    def test_scores_match_reference_forward(self):
        model = small_model(item_batch=2)
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        query = small_queries(model, 1)[0]
        result = engine.run_query(query)
        for item_position in range(query.item_batch):
            indices = dict(query.user_indices)
            indices.update(
                {name: per_item[item_position] for name, per_item in query.item_indices.items()}
            )
            expected = model.forward(query.dense_features, indices)
            assert result.scores[item_position] == pytest.approx(expected, rel=1e-5)

    def test_latency_is_sum_of_phases(self):
        model = small_model(item_batch=2)
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        result = engine.run_query(small_queries(model, 1)[0])
        assert result.latency == pytest.approx(
            result.bottom_mlp_time + result.embedding_time + result.top_mlp_time
        )

    def test_embedding_phase_is_max_of_user_and_item(self):
        model = small_model(item_batch=2)
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        result = engine.run_query(small_queries(model, 1)[0])
        assert result.embedding_time == pytest.approx(
            max(result.user_embedding_time, result.item_embedding_time)
        )

    def test_query_without_items_rejected(self):
        model = small_model()
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        query = Query(
            query_id=0,
            user_id=0,
            dense_features=np.zeros(model.dense_dim, dtype=np.float32),
            user_indices={name: np.array([0]) for name in model.tables},
            item_indices={},
        )
        with pytest.raises(ValueError):
            engine.run_query(query)

    @pytest.mark.parametrize("item_batch", [1, 16])
    def test_batched_item_side_equals_per_sample_loop(self, item_batch):
        model = small_model(num_item=3, item_batch=item_batch, seed=1)
        compute = ComputeSpec()
        user_backend = InMemoryBackend(model.tables, compute)
        batched = InferenceEngine(model, compute, user_backend)
        loop = InferenceEngine(model, compute, user_backend)
        loop.item_backend = LoopBackend(model.tables, compute)
        start = 0.0
        for query in small_queries(model, 10):
            result = batched.run_query(query, start)
            expected = loop.run_query(query, start)
            assert result.scores.dtype == np.float32
            assert np.array_equal(result.scores, expected.scores)
            assert result.latency == expected.latency
            assert result.bottom_mlp_time == expected.bottom_mlp_time
            assert result.user_embedding_time == expected.user_embedding_time
            assert result.item_embedding_time == expected.item_embedding_time
            assert result.top_mlp_time == expected.top_mlp_time
            start += result.latency

    def test_bad_item_indices_raise_from_run_query(self):
        model = small_model(item_batch=2)
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        query = small_queries(model, 1)[0]
        for bad_items, error in (
            ({"item_0": [[0], []]}, ValueError),
            ({"item_0": [[0], [256]]}, IndexError),
            ({"nope": [[0], [1]]}, KeyError),
            ({"item_0": [[0]], "user_0": [[0], [1]]}, ValueError),
        ):
            with pytest.raises(error):
                query.item_indices = {name: pack_bags(bags) for name, bags in bad_items.items()}
                engine.run_query(query)

    def test_scores_are_computed_once_when_first_read(self, monkeypatch):
        model = small_model(item_batch=2)
        engine = InferenceEngine(model, ComputeSpec(), InMemoryBackend(model.tables, ComputeSpec()))
        query = small_queries(model, 1)[0]
        calls = []
        score = InferenceEngine.score

        def counting(self, scored):
            calls.append(scored)
            return score(self, scored)

        monkeypatch.setattr(InferenceEngine, "score", counting)
        result = engine.run_query(query)
        assert calls == []  # serving computes no value
        first = result.scores
        assert result.scores is first
        assert calls == [query]

    def test_backends_serve_no_pruned_tables_by_default(self):
        model = small_model()
        assert dict(InMemoryBackend(model.tables, ComputeSpec()).pruned_tables) == {}

    def test_item_backend_is_in_memory(self):
        model = small_model(item_batch=2)
        engine = InferenceEngine(
            model, ComputeSpec(), user_backend=InMemoryBackend(model.tables, ComputeSpec())
        )
        assert isinstance(engine.item_backend, InMemoryBackend)
