"""Tests for embedding tables and pooled lookups."""

import numpy as np
import pytest

from repro.dlrm import (
    Bags,
    EmbeddingTable,
    EmbeddingTableSpec,
    dequantize_rows,
    pool_bags,
    prune_table,
)

from helpers import pack_bags, pool_one


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
    def test_pool_bags_rows_equal_bag_bit_for_bit(self, quant_bits, num_bags):
        table = EmbeddingTable.random(_spec(num_rows=64, dim=16, quant_bits=quant_bits), seed=0)
        rng = np.random.default_rng(num_bags)
        for _ in range(20):
            # Ragged bags of 1-12 rows drawn from 64: repeats inside a bag
            # are common, and a repeated row must be added twice.
            bags = [
                rng.integers(0, 64, size=rng.integers(1, 13)).tolist() for _ in range(num_bags)
            ]
            bags[0] = [5, 5, 5][: len(bags[0])] + bags[0][3:]
            pooled = pool_one(table, bags)
            assert pooled.dtype == np.float32
            assert pooled.shape == (num_bags, 16)
            for row, bag in zip(pooled, bags):
                assert np.array_equal(row, table.bag(bag))

    def test_pool_bags_accepts_array_bags(self):
        table = EmbeddingTable.random(_spec(num_rows=8, dim=4), seed=0)
        bags = [np.array([1, 2, 3]), np.array([7])]
        expected = np.stack([table.bag(bag) for bag in bags])
        np.testing.assert_array_equal(pool_one(table, bags), expected)

    def test_pool_bags_error_paths_match_bag(self):
        table = EmbeddingTable.random(_spec(num_rows=4), seed=0)
        pruned = prune_table(table, 0.3)
        for bad_bag, error in (([], ValueError), ([4], IndexError), ([-1], IndexError)):
            for bag in (table.bag, pruned.bag):
                with pytest.raises(error):
                    bag(bad_bag)
            with pytest.raises(error):
                pool_one(table, [[0, 1], bad_bag, [2]])
        with pytest.raises(ValueError):
            pool_one(table, [])

    @pytest.mark.parametrize(
        "indices, error",
        [
            ([1.7, 2.2], TypeError),  # would truncate to rows 1 and 2
            ([True, False], TypeError),  # would read rows 1 and 0
            (np.array([1.0, 2.0]), TypeError),
            ([[1, 2], [3, 0]], ValueError),  # not one-dimensional
        ],
    )
    def test_indices_are_never_coerced(self, indices, error):
        table = EmbeddingTable.random(_spec(num_rows=4, name="strict"), seed=0)
        pruned = prune_table(table, 0.3)
        for lookup in (table.bag, table.lookup_raw, table.lookup_dense, pruned.bag):
            with pytest.raises(error, match="table 'strict'"):
                lookup(indices)
        with pytest.raises(error, match="table 'strict'"):
            pool_one(table, [indices, indices])
        # One bad bag among good ones fails the whole CSR pair.
        with pytest.raises(TypeError, match="table 'strict'"):
            pool_one(table, [[0, 1], [1.7, 2.2], [3]])

    def test_unsigned_and_narrow_integer_indices_accepted(self):
        table = EmbeddingTable.random(_spec(num_rows=8, dim=4), seed=0)
        for dtype in (np.uint8, np.int32, np.uint64):
            np.testing.assert_array_equal(
                table.bag(np.array([1, 7], dtype=dtype)), table.bag([1, 7])
            )

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
        gathered = table.lookup_raw([4, 1])
        assert gathered.flags.writeable
        np.testing.assert_array_equal(gathered, raw[[4, 1]])
        np.testing.assert_array_equal(
            pool_one(table, [[0, 1], [5]]), [table.bag([0, 1]), table.bag([5])]
        )

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


def _mixed_tables():
    """Widths, quantisation widths (an odd 4-bit dim included) and row counts all differ."""
    shapes = [("a", 64, 16, 8), ("b", 48, 12, 4), ("c", 32, 21, 8), ("d", 40, 7, 4), ("e", 64, 16, 8)]
    return [
        EmbeddingTable.random(_spec(name=name, num_rows=rows, dim=dim, quant_bits=bits), seed=3)
        for name, rows, dim, bits in shapes
    ]


def _ragged_bags(rng, table, num_bags, as_array=False):
    """Bags of 1-40 rows: longer than most tables here, so rows repeat inside a bag."""
    bags = [
        rng.integers(0, table.spec.num_rows, size=rng.integers(1, 41)) for _ in range(num_bags)
    ]
    return bags if as_array else [bag.tolist() for bag in bags]


def _pool_lists(tables, bags_per_table):
    """:func:`pool_bags` over plain index lists, packed table by table."""
    return pool_bags(
        tables,
        [pack_bags(bags, table.spec.name) for table, bags in zip(tables, bags_per_table)],
    )


def _assert_pooled_equals_bag(tables, bags_per_table, pooled, lengths):
    assert len(pooled) == len(tables)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == [len(bag) for bags in bags_per_table for bag in bags]
    for table, bags, matrix in zip(tables, bags_per_table, pooled):
        assert matrix.dtype == np.float32
        assert matrix.shape == (len(bags), table.spec.dim)
        for row, bag in zip(matrix, bags):
            assert np.array_equal(row, table.bag(bag))


class TestPoolBags:
    @pytest.mark.parametrize("num_bags", [1, 16])
    def test_mixed_widths_and_quant_bits_equal_bag_bit_for_bit(self, num_bags):
        tables = _mixed_tables()
        rng = np.random.default_rng(num_bags)
        for _ in range(10):
            bags_per_table = [_ragged_bags(rng, table, num_bags) for table in tables]
            bags_per_table[0][0] = [5] * len(bags_per_table[0][0])
            pooled, lengths = _pool_lists(tables, bags_per_table)
            _assert_pooled_equals_bag(tables, bags_per_table, pooled, lengths)

    @pytest.mark.parametrize("quant_bits", [4, 8])
    def test_one_quant_width_with_mixed_dims(self, quant_bits):
        # One dequantisation at the widest dim: the narrower tables ride
        # along with pad columns that must not leak into their matrices.
        tables = [
            EmbeddingTable.random(
                _spec(name=f"t{dim}", num_rows=64, dim=dim, quant_bits=quant_bits), seed=dim
            )
            for dim in (9, 32, 16, 31)
        ]
        rng = np.random.default_rng(quant_bits)
        bags_per_table = [_ragged_bags(rng, table, 16) for table in tables]
        pooled, lengths = _pool_lists(tables, bags_per_table)
        _assert_pooled_equals_bag(tables, bags_per_table, pooled, lengths)

    def test_one_table(self):
        (table,) = _mixed_tables()[:1]
        bags = _ragged_bags(np.random.default_rng(0), table, 7)
        pooled, lengths = _pool_lists([table], [bags])
        _assert_pooled_equals_bag([table], [bags], pooled, lengths)

    def test_tables_may_differ_in_bag_count(self):
        tables = _mixed_tables()
        rng = np.random.default_rng(1)
        bags_per_table = [
            _ragged_bags(rng, table, count) for table, count in zip(tables, (3, 1, 16, 2, 5))
        ]
        pooled, lengths = _pool_lists(tables, bags_per_table)
        _assert_pooled_equals_bag(tables, bags_per_table, pooled, lengths)

    def test_array_bags_equal_list_bags(self):
        tables = _mixed_tables()
        arrays = [_ragged_bags(np.random.default_rng(2), table, 4, as_array=True) for table in tables]
        lists = [[bag.tolist() for bag in bags] for bags in arrays]
        from_arrays, lengths = _pool_lists(tables, arrays)
        _assert_pooled_equals_bag(tables, lists, from_arrays, lengths)
        for left, right in zip(from_arrays, _pool_lists(tables, lists)[0]):
            assert np.array_equal(left, right)

    def test_no_tables_pool_to_nothing(self):
        pooled, lengths = pool_bags([], [])
        assert pooled == [] and lengths.size == 0

    def test_error_paths_name_the_table(self):
        tables = _mixed_tables()[:2]
        with pytest.raises(ValueError, match="table 'b': bag 1 is empty"):
            _pool_lists(tables, [[[0], [1]], [[2], []]])
        with pytest.raises(ValueError, match="table 'a': lookup needs at least one index"):
            _pool_lists(tables, [[], [[2]]])
        with pytest.raises(IndexError, match=r"table 'b': indices out of range \[0, 48\)"):
            _pool_lists(tables, [[[63]], [[48]]])
        with pytest.raises(IndexError, match="table 'a'"):
            _pool_lists(tables, [[[0, -1]], [[0]]])
        with pytest.raises(ValueError, match="2 tables but 1 bag lists"):
            pool_bags(tables, [pack_bags([[0]])])
        with pytest.raises(ValueError, match="distinct names"):
            _pool_lists([tables[0], tables[0]], [[[0]], [[1]]])


class TestBags:
    def test_packed_bags_are_one_csr_pair(self):
        bags = pack_bags([[3, 1], [7], np.array([0, 2, 5])])
        assert len(bags) == 3
        assert bags.indices.dtype == np.int64 and bags.offsets.dtype == np.int64
        assert bags.indices.tolist() == [3, 1, 7, 0, 2, 5]
        assert bags.offsets.tolist() == [0, 2, 3, 6]
        assert bags.lengths.tolist() == [2, 1, 3]
        assert [bag.tolist() for bag in bags] == [[3, 1], [7], [0, 2, 5]]
        assert bags[-1].tolist() == [0, 2, 5]
        assert len(pack_bags([])) == 0

    def test_items_and_slices_are_read_only_views(self):
        indices = np.arange(10, dtype=np.int64)
        bags = Bags(indices, np.array([0, 2, 5, 9, 10]))
        assert indices.flags.writeable  # the caller's array keeps its flags
        assert np.shares_memory(bags.indices, indices)
        assert np.shares_memory(bags[1], indices) and bags[1].tolist() == [2, 3, 4]
        with pytest.raises(ValueError, match="read-only"):
            bags[1][0] = 0
        with pytest.raises(ValueError, match="read-only"):
            bags.offsets[0] = 1
        middle = bags[1:3]
        assert isinstance(middle, Bags) and np.shares_memory(middle.indices, indices)
        assert middle.offsets.tolist() == [0, 3, 7]
        assert [bag.tolist() for bag in middle] == [[2, 3, 4], [5, 6, 7, 8]]
        assert len(bags[3:1]) == 0
        with pytest.raises(IndexError):
            bags[4]
        with pytest.raises(ValueError, match="step 1"):
            bags[::2]

    @pytest.mark.parametrize(
        "offsets, message",
        [
            ([1, 2, 4], "offsets must start at 0"),
            ([0, 3, 2, 4], "offsets decrease at bag 1"),
            ([0, 2, 2, 4], "bag 1 is empty"),
            ([0, 2, 3], "offsets end at 3 but there are 4 indices"),
            ([], "offsets must be a non-empty"),
        ],
    )
    def test_malformed_layouts_are_rejected_naming_the_table(self, offsets, message):
        with pytest.raises(ValueError, match=f"table 'clicks': {message}"):
            Bags(np.arange(4), np.array(offsets, dtype=np.int64), "clicks")

    def test_indices_must_be_one_dimensional_integers(self):
        with pytest.raises(TypeError, match="table 't': indices must be integers"):
            Bags(np.array([1.0, 2.0]), np.array([0, 2]), "t")
        with pytest.raises(ValueError, match="one-dimensional"):
            Bags(np.zeros((2, 2), dtype=np.int64), np.array([0, 4]))
        with pytest.raises(ValueError, match="table 't': bag 1 is empty"):
            pack_bags([[0], [], [1]], "t")
