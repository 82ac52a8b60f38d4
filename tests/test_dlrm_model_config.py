"""Tests for the Table 6 model specifications and scaled model builder."""

import pytest

from repro.dlrm import (
    M1_SPEC,
    M2_SPEC,
    M3_SPEC,
    build_scaled_model,
    figure1_model_spec,
)
from repro.dlrm.model_config import TableGroupSpec
from repro.sim.units import GB


class TestTable6Specs:
    def test_m1_headline_numbers(self):
        assert M1_SPEC.size_bytes == 143 * GB
        assert M1_SPEC.user_tables.num_tables == 61
        assert M1_SPEC.item_tables.num_tables == 30
        assert M1_SPEC.user_tables.avg_pooling_factor == 42
        assert M1_SPEC.item_batch == 50

    def test_m2_headline_numbers(self):
        assert M2_SPEC.size_bytes == 150 * GB
        assert M2_SPEC.user_tables.num_tables == 450
        assert M2_SPEC.item_tables.num_tables == 280
        assert M2_SPEC.item_batch == 150

    def test_m3_headline_numbers(self):
        assert M3_SPEC.size_bytes == 1000 * GB
        assert M3_SPEC.user_tables.num_tables == 1800
        assert M3_SPEC.item_batch == 1000
        assert M3_SPEC.num_parameters == pytest.approx(5e12)

    def test_user_batch_is_one_for_all_models(self):
        for spec in (M1_SPEC, M2_SPEC, M3_SPEC):
            assert spec.user_tables.batch_size == 1

    def test_user_capacity_is_majority(self):
        """The paper observes >2/3 of capacity comes from user embeddings."""
        for spec in (M1_SPEC, M2_SPEC, M3_SPEC):
            user, item = spec.user_tables.capacity_bytes, spec.item_tables.capacity_bytes
            assert user / (user + item) >= 0.6

    def test_figure1_model_shape(self):
        spec = figure1_model_spec()
        assert spec.num_tables == 734
        assert spec.user_tables.num_tables == 445
        assert spec.user_tables.capacity_bytes == 100 * GB


class TestTableProfiles:
    def test_profile_count_matches_spec(self):
        profiles = M1_SPEC.table_profiles(seed=0)
        assert len(profiles) == M1_SPEC.num_tables

    def test_profiles_deterministic(self):
        a = M1_SPEC.table_profiles(seed=0)
        b = M1_SPEC.table_profiles(seed=0)
        assert [p.spec.num_rows for p in a] == [p.spec.num_rows for p in b]

    def test_total_capacity_close_to_spec(self):
        profiles = M2_SPEC.table_profiles(seed=0)
        total = sum(p.size_bytes for p in profiles)
        embedding_capacity = (
            M2_SPEC.user_tables.capacity_bytes + M2_SPEC.item_tables.capacity_bytes
        )
        assert total == pytest.approx(embedding_capacity, rel=0.15)

    def test_row_bytes_within_group_range(self):
        profiles = M1_SPEC.table_profiles(seed=0)
        for profile in profiles:
            group = M1_SPEC.user_tables if profile.spec.is_user else M1_SPEC.item_tables
            assert group.row_bytes_min <= profile.spec.row_bytes <= group.row_bytes_max + 1

    def test_item_tables_carry_batch_factor(self):
        profiles = M1_SPEC.table_profiles(seed=0)
        item = [p for p in profiles if not p.spec.is_user][0]
        assert item.batch_size == M1_SPEC.item_batch
        assert item.bytes_per_query == pytest.approx(
            item.batch_size * item.spec.avg_pooling_factor * item.spec.row_bytes
        )

    def test_user_tables_dominate_capacity_but_not_bandwidth(self):
        """The central skew of Figure 1: user tables hold most capacity while
        item tables (batched) demand most of the bandwidth."""
        profiles = M1_SPEC.table_profiles(seed=0)
        user = [p for p in profiles if p.spec.is_user]
        item = [p for p in profiles if not p.spec.is_user]
        assert sum(p.size_bytes for p in user) > sum(p.size_bytes for p in item)
        assert sum(p.bytes_per_query for p in item) > sum(p.bytes_per_query for p in user)


class TestBuildScaledModel:
    def test_scaled_model_structure(self):
        model = build_scaled_model(M1_SPEC, max_tables_per_group=4, max_rows_per_table=128)
        assert len(model.user_table_specs) == 4
        assert len(model.item_table_specs) == 4
        assert all(spec.num_rows <= 128 for spec in model.table_specs)

    def test_item_batch_defaults_to_spec(self):
        model = build_scaled_model(M1_SPEC, max_tables_per_group=2, max_rows_per_table=64)
        assert model.item_batch == M1_SPEC.item_batch

    def test_item_batch_override(self):
        model = build_scaled_model(
            M1_SPEC, max_tables_per_group=2, max_rows_per_table=64, item_batch=5
        )
        assert model.item_batch == 5

    def test_pooling_factor_scaled_to_row_count(self):
        model = build_scaled_model(M1_SPEC, max_tables_per_group=4, max_rows_per_table=64)
        for spec in model.table_specs:
            assert spec.avg_pooling_factor <= spec.num_rows

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            build_scaled_model(M1_SPEC, max_tables_per_group=0)
        with pytest.raises(ValueError):
            build_scaled_model(M1_SPEC, max_rows_per_table=0)

    def test_model_runs_forward(self):
        import numpy as np

        model = build_scaled_model(M2_SPEC, max_tables_per_group=2, max_rows_per_table=64, item_batch=2)
        indices = {name: [0, 1] for name in model.tables}
        score = model.forward(np.zeros(model.dense_dim, dtype=np.float32), indices)
        assert np.isfinite(score)


class TestGroupValidation:
    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            TableGroupSpec(
                num_tables=0,
                row_bytes_min=32,
                row_bytes_max=64,
                row_bytes_avg=48,
                avg_pooling_factor=1,
                batch_size=1,
                capacity_bytes=GB,
            )
        with pytest.raises(ValueError):
            TableGroupSpec(
                num_tables=1,
                row_bytes_min=64,
                row_bytes_max=32,
                row_bytes_avg=48,
                avg_pooling_factor=1,
                batch_size=1,
                capacity_bytes=GB,
            )
