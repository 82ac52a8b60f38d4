"""Tests for embedding tables and pooled lookups."""

import numpy as np
import pytest

from repro.dlrm import EmbeddingTable, EmbeddingTableSpec, dequantize_rows


def _spec(**kwargs):
    defaults = dict(
        name="t", num_rows=64, dim=16, is_user=True, avg_pooling_factor=4.0
    )
    defaults.update(kwargs)
    return EmbeddingTableSpec(**defaults)


class TestEmbeddingTableSpec:
    def test_row_bytes_includes_quant_params(self):
        assert _spec(dim=64).row_bytes == 72

    def test_size_bytes(self):
        spec = _spec(num_rows=100, dim=64)
        assert spec.size_bytes == 100 * 72

    def test_bytes_per_query(self):
        spec = _spec(dim=64, avg_pooling_factor=10)
        assert spec.bytes_per_query == pytest.approx(720)

    def test_with_rows(self):
        assert _spec().with_rows(10).num_rows == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(num_rows=0)
        with pytest.raises(ValueError):
            _spec(dim=0)
        with pytest.raises(ValueError):
            _spec(quant_bits=3)
        with pytest.raises(ValueError):
            _spec(avg_pooling_factor=0)
        with pytest.raises(ValueError):
            _spec(pruned_fraction=1.0)


class TestEmbeddingTable:
    def test_random_table_is_reproducible(self):
        spec = _spec()
        a = EmbeddingTable.random(spec, seed=5)
        b = EmbeddingTable.random(spec, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        spec = _spec()
        a = EmbeddingTable.random(spec, seed=1)
        b = EmbeddingTable.random(spec, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_from_float_shape_checked(self):
        spec = _spec(num_rows=4, dim=8)
        with pytest.raises(ValueError):
            EmbeddingTable.from_float(spec, np.zeros((4, 9), dtype=np.float32))

    def test_wrong_quantized_shape_rejected(self):
        spec = _spec(num_rows=4, dim=8)
        with pytest.raises(ValueError):
            EmbeddingTable(spec, np.zeros((4, 10), dtype=np.uint8))

    def test_lookup_dense_matches_manual_dequantisation(self):
        spec = _spec(num_rows=8, dim=12)
        table = EmbeddingTable.random(spec, seed=0)
        dense = table.lookup_dense([1, 3])
        manual = dequantize_rows(table.data[[1, 3]], dim=12)
        np.testing.assert_array_equal(dense, manual)

    def test_bag_is_sum_of_rows(self):
        spec = _spec(num_rows=8, dim=4)
        table = EmbeddingTable.random(spec, seed=0)
        pooled = table.bag([0, 2, 5])
        expected = table.lookup_dense([0, 2, 5]).sum(axis=0)
        np.testing.assert_allclose(pooled, expected)

    def test_bag_order_invariance(self):
        spec = _spec(num_rows=8, dim=4)
        table = EmbeddingTable.random(spec, seed=0)
        np.testing.assert_allclose(table.bag([1, 2, 3]), table.bag([3, 1, 2]), rtol=1e-6)

    def test_row_bytes_at_matches_data(self):
        spec = _spec(num_rows=4, dim=8)
        table = EmbeddingTable.random(spec, seed=0)
        assert table.row_bytes_at(2) == table.data[2].tobytes()

    def test_out_of_range_lookup_rejected(self):
        table = EmbeddingTable.random(_spec(num_rows=4), seed=0)
        with pytest.raises(IndexError):
            table.lookup_dense([4])
        with pytest.raises(IndexError):
            table.lookup_dense([-1])

    def test_empty_lookup_rejected(self):
        table = EmbeddingTable.random(_spec(), seed=0)
        with pytest.raises(ValueError):
            table.lookup_dense([])

    def test_lookup_accepts_any_index_container(self):
        table = EmbeddingTable.random(_spec(num_rows=8, dim=4), seed=0)
        expected = table.lookup_raw([1, 2, 3])
        for indices in (np.array([1, 2, 3]), range(1, 4), (1, 2, 3), iter([1, 2, 3])):
            np.testing.assert_array_equal(table.lookup_raw(indices), expected)
        with pytest.raises(IndexError, match=r"out of range \[0, 8\)"):
            table.lookup_raw(np.array([0, 8]))
        with pytest.raises(IndexError):
            table.lookup_raw(range(-1, 2))
        with pytest.raises(ValueError, match="at least one index"):
            table.lookup_raw(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("quant_bits", [4, 8])
    @pytest.mark.parametrize("num_bags", [1, 16])
    def test_bag_batch_rows_equal_bag_bit_for_bit(self, quant_bits, num_bags):
        table = EmbeddingTable.random(_spec(num_rows=64, dim=16, quant_bits=quant_bits), seed=0)
        rng = np.random.default_rng(num_bags)
        for _ in range(20):
            # Ragged bags of 1-12 rows drawn from 64: repeats inside a bag
            # are common, and a repeated row must be added twice.
            bags = [
                rng.integers(0, 64, size=rng.integers(1, 13)).tolist() for _ in range(num_bags)
            ]
            bags[0] = [5, 5, 5][: len(bags[0])] + bags[0][3:]
            pooled = table.bag_batch(bags)
            assert pooled.dtype == np.float32
            assert pooled.shape == (num_bags, 16)
            for row, bag in zip(pooled, bags):
                assert np.array_equal(row, table.bag(bag))

    def test_bag_batch_accepts_array_bags(self):
        table = EmbeddingTable.random(_spec(num_rows=8, dim=4), seed=0)
        bags = [np.array([1, 2, 3]), np.array([7])]
        expected = np.stack([table.bag(bag) for bag in bags])
        np.testing.assert_array_equal(table.bag_batch(bags), expected)

    def test_bag_batch_error_paths_match_bag(self):
        table = EmbeddingTable.random(_spec(num_rows=4), seed=0)
        for bad_bag, error in (([], ValueError), ([4], IndexError), ([-1], IndexError)):
            with pytest.raises(error):
                table.bag(bad_bag)
            with pytest.raises(error):
                table.bag_batch([[0, 1], bad_bag, [2]])
        with pytest.raises(ValueError):
            table.bag_batch([])

    def test_iter_row_bytes_covers_all_rows(self):
        spec = _spec(num_rows=6, dim=4)
        table = EmbeddingTable.random(spec, seed=0)
        rows = list(table.iter_row_bytes())
        assert len(rows) == 6
        assert all(len(row) == spec.row_bytes for row in rows)

    def test_data_is_a_read_only_view_of_the_callers_array(self):
        spec = _spec(num_rows=6, dim=4)
        raw = EmbeddingTable.random(spec, seed=0).data.copy()
        table = EmbeddingTable(spec, raw)
        assert np.shares_memory(table.data, raw)
        assert raw.flags.writeable and not table.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.data[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table.data[1:3] = 0
        # Every lookup path reads through the view; gathers are fresh copies.
        assert table.row_bytes_at(2) == raw[2].tobytes()
        gathered = table.lookup_raw([4, 1])
        assert gathered.flags.writeable
        np.testing.assert_array_equal(gathered, raw[[4, 1]])
        np.testing.assert_array_equal(
            table.bag_batch([[0, 1], [5]]), [table.bag([0, 1]), table.bag([5])]
        )
        assert list(table.iter_row_bytes()) == [row.tobytes() for row in raw]

    def test_size_bytes_matches_spec(self):
        spec = _spec(num_rows=10, dim=8)
        table = EmbeddingTable.random(spec, seed=0)
        assert table.size_bytes == spec.size_bytes

    def test_int4_table_roundtrip(self):
        spec = _spec(dim=16, quant_bits=4)
        table = EmbeddingTable.random(spec, seed=0)
        dense = table.lookup_dense([0, 1])
        assert dense.shape == (2, 16)
        assert np.isfinite(dense).all()

    def test_repr_mentions_name(self):
        assert "t" in repr(EmbeddingTable.random(_spec(), seed=0))
