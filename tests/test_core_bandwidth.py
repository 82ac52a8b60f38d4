"""Tests for the bandwidth/IOPS requirement analysis (Eq. 1-4, 8)."""

import pytest

from repro.core import (
    bandwidth_requirement,
    bytes_per_query,
    iops_requirement,
    sm_time_budget,
    table_bandwidth_summary,
)
from repro.core.bandwidth import capacity_split, required_sm_bandwidth
from repro.dlrm import M1_SPEC, M2_SPEC
from repro.dlrm.model_config import TableProfile
from repro.dlrm.embedding import EmbeddingTableSpec


def _profiles():
    user = TableProfile(
        spec=EmbeddingTableSpec(
            name="u", num_rows=1000, dim=56, is_user=True, avg_pooling_factor=10
        ),
        batch_size=1,
    )
    item = TableProfile(
        spec=EmbeddingTableSpec(
            name="i", num_rows=1000, dim=56, is_user=False, avg_pooling_factor=5
        ),
        batch_size=20,
    )
    return [user, item]


class TestBandwidthRequirement:
    def test_bytes_per_query_sums_user_and_item(self):
        profiles = _profiles()
        row_bytes = profiles[0].spec.row_bytes
        expected = 1 * 10 * row_bytes + 20 * 5 * row_bytes
        assert bytes_per_query(profiles) == pytest.approx(expected)

    def test_requirement_splits_user_and_item_demand(self):
        profiles = _profiles()
        requirement = bandwidth_requirement(profiles, qps=100)
        assert requirement.qps == 100
        assert requirement.user_bytes_per_query + requirement.item_bytes_per_query == (
            pytest.approx(bytes_per_query(profiles))
        )

    def test_item_bytes_dominate_due_to_batching(self):
        requirement = bandwidth_requirement(_profiles(), qps=10)
        assert requirement.item_bytes_per_query > requirement.user_bytes_per_query

    def test_user_lookups_eq8(self):
        requirement = bandwidth_requirement(_profiles(), qps=100)
        assert requirement.user_lookups_per_query == pytest.approx(10)
        assert requirement.item_lookups_per_query == pytest.approx(20 * 5)

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_requirement(_profiles(), qps=0)


class TestIOPSRequirement:
    def test_m1_iops_matches_paper_section_51(self):
        """120 QPS x 50 SM tables x 42 average pooling ~= 246 kIOPS."""
        specs = [
            EmbeddingTableSpec(
                name=f"u{i}", num_rows=1000, dim=120, is_user=True, avg_pooling_factor=42
            )
            for i in range(50)
        ]
        profiles = [TableProfile(spec=s, batch_size=1) for s in specs]
        iops = iops_requirement(profiles, qps=120)
        assert iops == pytest.approx(252_000)
        assert iops == pytest.approx(246_000, rel=0.05)

    def test_cache_hit_rate_reduces_iops(self):
        profiles = _profiles()
        assert iops_requirement(profiles, 100, cache_hit_rate=0.9) == pytest.approx(
            0.1 * iops_requirement(profiles, 100, cache_hit_rate=0.0)
        )

    def test_restriction_to_sm_tables(self):
        profiles = _profiles()
        assert iops_requirement(profiles, 100, sm_table_names=["u"]) == pytest.approx(
            100 * 10
        )
        assert iops_requirement(profiles, 100, sm_table_names=[]) == 0

    def test_iops_is_qps_times_the_user_lookups(self):
        # Eq. 8 as the requirement's fields spell it, linear in QPS.
        profiles = _profiles()
        for qps in (1, 100, 2500):
            requirement = bandwidth_requirement(profiles, qps=qps)
            assert iops_requirement(profiles, qps) == pytest.approx(
                requirement.qps * requirement.user_lookups_per_query
            )

    def test_invalid_hit_rate_rejected(self):
        with pytest.raises(ValueError):
            iops_requirement(_profiles(), 100, cache_hit_rate=1.5)


class TestTimeBudget:
    def test_budget_is_item_fetch_time(self):
        profiles = _profiles()
        budget = sm_time_budget(profiles, fast_memory_bandwidth=10e9)
        item_bytes = profiles[1].bytes_per_query
        assert budget == pytest.approx(item_bytes / 10e9)

    def test_required_sm_bandwidth_balances_eq4(self):
        profiles = _profiles()
        fm_bw = 10e9
        sm_bw = required_sm_bandwidth(profiles, fm_bw)
        user_bytes = profiles[0].bytes_per_query
        item_bytes = profiles[1].bytes_per_query
        # user_time == item_time at the required SM bandwidth
        assert user_bytes / sm_bw == pytest.approx(item_bytes / fm_bw)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            sm_time_budget(_profiles(), 0)


class TestSummaries:
    def test_table_bandwidth_summary_rows(self):
        rows = table_bandwidth_summary(_profiles())
        assert len(rows) == 2
        name, is_user, size, bpq = rows[0]
        assert name == "u"
        assert is_user is True
        assert size > 0 and bpq > 0

    def test_capacity_split_for_paper_models(self):
        for spec in (M1_SPEC, M2_SPEC):
            split = capacity_split(spec.table_profiles(seed=0))
            assert split["user_fraction"] > 0.5
            assert split["user_fraction"] + split["item_fraction"] == pytest.approx(1.0)
