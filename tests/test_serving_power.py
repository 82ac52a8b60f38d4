"""Tests for the power model."""

import pytest

from repro.serving import HW_AN, HW_L, HW_S, HW_SS, PowerModel, power_saving


class TestPowerSaving:
    def test_basic_saving(self):
        assert power_saving(1200, 960) == pytest.approx(0.2)

    def test_no_saving(self):
        assert power_saving(100, 100) == 0.0

    def test_negative_saving_when_candidate_worse(self):
        assert power_saving(100, 120) == pytest.approx(-0.2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            power_saving(0, 10)
        with pytest.raises(ValueError):
            power_saving(10, -1)


class TestPowerModel:
    def test_host_power_uses_platform_relative_power(self):
        model = PowerModel()
        assert model.host_power(HW_L) == pytest.approx(1.0)
        assert model.host_power(HW_SS) == pytest.approx(0.4)

    def test_fleet_power_scales_with_hosts(self):
        model = PowerModel()
        assert model.fleet_power(HW_L, 1200) == pytest.approx(1200)
        assert model.fleet_power(HW_SS, 2400) == pytest.approx(960)

    def test_fleet_power_table9_baseline(self):
        """Table 9 scale-out row: 1500 HW-AN + 300 HW-S = 1575 units."""
        model = PowerModel()
        total = model.fleet_power(HW_AN, 1500) + model.fleet_power(HW_S, 300)
        assert total == pytest.approx(1575)

    def test_negative_host_count_rejected(self):
        with pytest.raises(ValueError):
            PowerModel().fleet_power(HW_L, -1)

    def test_utilisation_normalised_power(self):
        model = PowerModel()
        assert model.utilisation_normalised_power(HW_L, 0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            model.utilisation_normalised_power(HW_L, 0.0)
        with pytest.raises(ValueError):
            model.utilisation_normalised_power(HW_L, 1.5)
