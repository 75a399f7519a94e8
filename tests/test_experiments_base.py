"""Unit tests for the experiment result containers."""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentPoint, ExperimentResult


class TestExperimentPoint:
    def test_as_row_merges_parameters_and_metrics(self):
        point = ExperimentPoint(parameters={"k": 2}, metrics={"accuracy": 0.9})
        assert point.as_row() == {"k": 2, "accuracy": 0.9}


class TestExperimentResult:
    @pytest.fixture()
    def result(self):
        result = ExperimentResult(name="Figure X", description="demo")
        result.add_point({"k": 2}, {"accuracy": 0.9, "recall": 1.0})
        result.add_point({"k": 6}, {"accuracy": 0.8, "recall": 0.7})
        return result

    def test_rows(self, result):
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0]["k"] == 2
        assert rows[1]["accuracy"] == 0.8

    def test_columns_order(self, result):
        assert result.columns() == ["k", "accuracy", "recall"]

    def test_metric_series(self, result):
        assert result.metric_series("accuracy") == [0.9, 0.8]
        assert result.metric_series("missing") == []

    def test_format_table_contains_values(self, result):
        table = result.format_table()
        assert "Figure X" in table
        assert "0.900" in table
        assert "recall" in table

    def test_format_table_keeps_small_rates_readable(self):
        result = ExperimentResult(name="noise")
        for noise, accuracy in [(1e-6, 1.0), (5e-5, 0.486), (0.0, 7)]:
            result.add_point({"noise": noise}, {"accuracy": accuracy})
        cells = [
            [cell.strip() for cell in line.split("|")]
            for line in result.format_table().splitlines()[3:]
        ]
        assert cells == [["1e-06", "1.000"], ["5e-05", "0.486"], ["0.000", "7"]]

    def test_format_empty_result(self):
        empty = ExperimentResult(name="empty")
        assert "no data" in empty.format_table()

    def test_points_with_different_columns(self):
        result = ExperimentResult(name="mixed")
        result.add_point({"a": 1}, {"x": 0.5})
        result.add_point({"b": 2}, {"y": 0.6})
        table = result.format_table()
        assert "a" in table and "b" in table and "x" in table and "y" in table
