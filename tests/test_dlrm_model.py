"""Tests for the DLRM model."""

import numpy as np
import pytest

from repro.dlrm import DLRMModel, MLP

from helpers import pool_one, small_model


class TestDLRMModelStructure:
    def test_user_and_item_specs_split(self):
        model = small_model(num_user=3, num_item=2)
        assert len(model.user_table_specs) == 3
        assert len(model.item_table_specs) == 2
        assert len(model.table_specs) == 5

    def test_embedding_size_bytes(self):
        model = small_model()
        assert model.embedding_size_bytes == sum(
            t.size_bytes for t in model.tables.values()
        )

    def test_table_accessor_raises_for_unknown(self):
        model = small_model()
        with pytest.raises(KeyError):
            model.table("nope")

    def test_mismatched_top_mlp_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            DLRMModel(
                name="bad",
                bottom_mlp=model.bottom_mlp,
                top_mlp=MLP([3, 1]),
                tables=model.tables,
                dense_dim=model.dense_dim,
            )

    def test_mismatched_bottom_mlp_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            DLRMModel(
                name="bad",
                bottom_mlp=MLP([99, 8]),
                top_mlp=model.top_mlp,
                tables=model.tables,
                dense_dim=model.dense_dim,
            )

    def test_invalid_item_batch_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            DLRMModel(
                name="bad",
                bottom_mlp=model.bottom_mlp,
                top_mlp=model.top_mlp,
                tables=model.tables,
                dense_dim=model.dense_dim,
                item_batch=0,
            )


class TestDLRMForward:
    def test_forward_returns_finite_scalar(self):
        model = small_model()
        indices = {name: [0, 1] for name in model.tables}
        score = model.forward(np.zeros(model.dense_dim, dtype=np.float32), indices)
        assert isinstance(score, float)
        assert np.isfinite(score)

    def test_forward_deterministic(self):
        model = small_model(seed=4)
        dense = np.linspace(-1, 1, model.dense_dim).astype(np.float32)
        indices = {name: [2, 5, 7] for name in model.tables}
        assert model.forward(dense, indices) == model.forward(dense, indices)

    def test_score_requires_all_tables(self):
        model = small_model()
        with pytest.raises(KeyError):
            model.score(np.zeros(model.dense_dim), {})

    def test_score_independent_of_pooled_dict_order(self):
        model = small_model()
        dense = np.ones(model.dense_dim, dtype=np.float32)
        indices = {name: [1, 2] for name in model.tables}
        pooled = model.pooled_embeddings(indices)
        reordered = dict(reversed(list(pooled.items())))
        assert model.score(dense, pooled) == pytest.approx(model.score(dense, reordered))

    def test_score_rejects_wrong_dense_shape(self):
        model = small_model()
        pooled = model.pooled_embeddings({name: [0] for name in model.tables})
        with pytest.raises(ValueError):
            model.score(np.zeros(model.dense_dim + 1), pooled)

    def test_score_batch_rows_equal_score_bit_for_bit(self):
        model = small_model(num_user=2, num_item=2, seed=3)
        rng = np.random.default_rng(0)
        dense = rng.normal(size=model.dense_dim).astype(np.float32)
        user_pooled = {
            spec.name: model.table(spec.name).bag([1, 2, 3]) for spec in model.user_table_specs
        }
        for batch in (1, 16):
            bags = rng.integers(0, 256, size=(batch, 4)).tolist()
            item_pooled = {
                spec.name: pool_one(model.table(spec.name), bags)
                for spec in model.item_table_specs
            }
            scores = model.score_batch(dense, user_pooled, item_pooled)
            assert scores.dtype == np.float32
            assert scores.shape == (batch,)
            for position in range(batch):
                pooled = dict(user_pooled)
                pooled.update({name: matrix[position] for name, matrix in item_pooled.items()})
                assert scores[position] == np.float32(model.score(dense, pooled))

    def test_score_is_independent_of_batch_neighbours(self):
        # The stacked top MLP must give a candidate the same bits alone, in a
        # batch of 16, and wherever in that batch it sits.
        model = small_model(num_user=2, num_item=2, seed=5)
        rng = np.random.default_rng(1)
        dense = rng.normal(size=model.dense_dim).astype(np.float32)
        user_pooled = {
            spec.name: model.table(spec.name).bag([4, 5]) for spec in model.user_table_specs
        }
        bags = rng.integers(0, 256, size=(16, 6)).tolist()
        item_pooled = {
            spec.name: pool_one(model.table(spec.name), bags) for spec in model.item_table_specs
        }
        scores = model.score_batch(dense, user_pooled, item_pooled)
        for position in range(16):
            alone = {name: matrix[position : position + 1] for name, matrix in item_pooled.items()}
            assert model.score_batch(dense, user_pooled, alone)[0] == scores[position]
        order = rng.permutation(16)
        shuffled = {name: matrix[order] for name, matrix in item_pooled.items()}
        assert np.array_equal(model.score_batch(dense, user_pooled, shuffled), scores[order])

    def test_score_batch_item_side_wins_for_a_table_in_both(self):
        model = small_model()
        dense = np.ones(model.dense_dim, dtype=np.float32)
        pooled = model.pooled_embeddings({name: [1, 2] for name in model.tables})
        other = model.pooled_embeddings({name: [3] for name in model.tables})
        item_pooled = {"item_0": pooled["item_0"][None, :]}
        scores = model.score_batch(dense, {**pooled, "item_0": other["item_0"]}, item_pooled)
        assert scores[0] == np.float32(model.score(dense, pooled))

    def test_score_batch_rejects_what_score_rejects(self):
        model = small_model()
        dense = np.zeros(model.dense_dim, dtype=np.float32)
        pooled = model.pooled_embeddings({name: [0] for name in model.tables})
        user_pooled = {name: pooled[name] for name in ("user_0", "user_1")}
        item_pooled = {"item_0": pooled["item_0"][None, :]}
        with pytest.raises(KeyError):
            model.score_batch(dense, {"user_0": pooled["user_0"]}, item_pooled)
        with pytest.raises(ValueError):
            model.score_batch(np.zeros(model.dense_dim + 1), user_pooled, item_pooled)
        with pytest.raises(ValueError):  # no item table: the batch size is undefined
            model.score_batch(dense, pooled, {})

    def test_pooled_embeddings_match_table_bag(self):
        model = small_model()
        indices = {name: [1, 3, 4] for name in model.tables}
        pooled = model.pooled_embeddings(indices)
        for name, vector in pooled.items():
            np.testing.assert_allclose(vector, model.table(name).bag(indices[name]))

    def test_different_indices_change_score(self):
        model = small_model()
        dense = np.ones(model.dense_dim, dtype=np.float32)
        score_a = model.forward(dense, {name: [0] for name in model.tables})
        score_b = model.forward(dense, {name: [1] for name in model.tables})
        assert score_a != score_b
