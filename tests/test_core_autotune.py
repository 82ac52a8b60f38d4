"""Tests for the auto-tuning tool."""

import pytest

from repro.core import AutoTuner, SDMConfig
from repro.sim.units import MIB


class TestAutoTuner:
    def test_evaluates_all_combinations(self):
        evaluated = []

        def evaluate(config):
            evaluated.append(config)
            return float(config.row_cache_capacity_bytes)

        tuner = AutoTuner(
            base_config=SDMConfig(),
            search_space={
                "row_cache_capacity_bytes": [1 * MIB, 2 * MIB],
                "pooled_len_threshold": [1, 4, 8],
            },
            evaluate=evaluate,
        )
        results = tuner.run()
        assert len(results) == 6
        assert len(evaluated) == 6

    def test_results_sorted_best_first(self):
        tuner = AutoTuner(
            base_config=SDMConfig(),
            search_space={"row_cache_capacity_bytes": [1 * MIB, 4 * MIB, 2 * MIB]},
            evaluate=lambda config: float(config.row_cache_capacity_bytes),
        )
        results = tuner.run()
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)
        assert tuner.best().overrides["row_cache_capacity_bytes"] == 4 * MIB

    def test_candidates_deterministic_order(self):
        tuner = AutoTuner(
            base_config=SDMConfig(),
            search_space={"pooled_len_threshold": [1, 2], "promotion": ["all", "top"]},
            evaluate=lambda config: 0.0,
        )
        assert tuner.candidates() == tuner.candidates()

    def test_best_config_is_applied_copy(self):
        tuner = AutoTuner(
            base_config=SDMConfig(),
            search_space={"pooled_len_threshold": [7]},
            evaluate=lambda config: 1.0,
        )
        assert tuner.best().config.pooled_len_threshold == 7

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(SDMConfig(), {"nonexistent_field": [1]}, lambda c: 0.0)

    def test_empty_search_space_rejected(self):
        with pytest.raises(ValueError):
            AutoTuner(SDMConfig(), {}, lambda c: 0.0)
        with pytest.raises(ValueError):
            AutoTuner(SDMConfig(), {"tiers": []}, lambda c: 0.0)
