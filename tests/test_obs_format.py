"""Tests for the plain-text table and series formatting in repro.obs.report."""

import importlib

import pytest

import repro
import repro.analysis
import repro.obs.report
from repro import format_series, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "b"], [[1, 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.000" in lines[2]

    def test_title_is_first_line(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        text = format_table(["name", "v"], [["long-name", 1], ["x", 22]])
        lines = text.splitlines()
        # Separator length matches the widest row.
        assert len(lines[1]) == len(lines[2])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_custom_float_format(self):
        text = format_table(["v"], [[3.14159]], float_fmt=".1f")
        assert "3.1" in text
        assert "3.14" not in text

    def test_bool_rendered_as_text(self):
        text = format_table(["flag"], [[True]])
        assert "True" in text


class TestFormatSeries:
    def test_mapping_input(self):
        text = format_series("curve", {1: 10.0, 2: 20.0}, x_label="qps", y_label="lat")
        assert "curve" in text
        assert "qps" in text
        assert "20.000" in text

    def test_pair_sequence_input(self):
        text = format_series("s", [(0.1, 1.0), (0.2, 2.0)])
        assert text.count("\n") == 4  # title + header + separator + 2 rows


class TestHome:
    def test_repro_exports_the_report_modules_formatters(self):
        assert repro.format_table is repro.obs.report.format_table
        assert repro.format_series is repro.obs.report.format_series

    def test_analysis_keeps_percentile_only(self):
        assert repro.analysis.__all__ == ["percentile"]
        assert not hasattr(repro.analysis, "format_table")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.analysis.reporting")
