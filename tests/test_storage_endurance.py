"""Tests for the endurance / model-update-interval model."""

import pytest

from repro.sim.units import GB, TB
from repro.storage import EnduranceModel, nand_flash_spec, optane_ssd_spec, update_interval_days


class TestUpdateIntervalFormula:
    def test_paper_formula(self):
        # 365 * ModelSize / (DWPD * Capacity)
        interval = update_interval_days(100 * GB, dwpd=5.0, sm_capacity_bytes=4 * TB)
        assert interval == pytest.approx(365 * 100 * GB / (5.0 * 4 * TB))

    def test_higher_dwpd_shortens_interval(self):
        low = update_interval_days(100 * GB, 5.0, 2 * TB)
        high = update_interval_days(100 * GB, 100.0, 2 * TB)
        assert high < low

    def test_bigger_model_needs_longer_interval(self):
        small = update_interval_days(100 * GB, 5.0, 2 * TB)
        big = update_interval_days(1 * TB, 5.0, 2 * TB)
        assert big > small

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            update_interval_days(0, 5.0, TB)
        with pytest.raises(ValueError):
            update_interval_days(GB, 0, TB)
        with pytest.raises(ValueError):
            update_interval_days(GB, 5.0, 0)


class TestEnduranceModel:
    def test_min_update_interval_scales_with_update_size(self):
        model = EnduranceModel(nand_flash_spec(2 * TB))
        small = model.min_update_interval_seconds(100 * GB)
        large = model.min_update_interval_seconds(1 * TB)
        assert large == pytest.approx(10 * small)

    def test_optane_supports_much_more_frequent_updates_than_nand(self):
        """Section 3: Optane endurance is high enough for frequent updates."""
        nand = EnduranceModel(nand_flash_spec(2 * TB))
        optane = EnduranceModel(optane_ssd_spec(2 * TB))
        update_bytes = 100 * GB
        assert (
            optane.min_update_interval_seconds(update_bytes)
            < nand.min_update_interval_seconds(update_bytes) / 10
        )

    def test_rate_view_agrees_with_the_paper_formula(self):
        # Rewriting the whole device is one full model update: the minimum
        # interval is then 1 / DWPD days, which the formula gives as
        # 365 * ModelSize / (DWPD * SMCapacity) on a 365-day horizon.
        for spec in (nand_flash_spec(2 * TB), optane_ssd_spec(400 * GB)):
            model = EnduranceModel(spec)
            days = model.min_update_interval_seconds(spec.capacity_bytes) / 86_400
            assert days == pytest.approx(1.0 / spec.endurance_dwpd)
            assert days == pytest.approx(
                update_interval_days(spec.capacity_bytes, spec.endurance_dwpd, spec.capacity_bytes)
                / 365
            )

    def test_invalid_update_size_rejected(self):
        with pytest.raises(ValueError):
            EnduranceModel(nand_flash_spec()).min_update_interval_seconds(0)
