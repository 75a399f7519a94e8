"""Tests for the experiments: the figure matrix against its golden, and the
measured experiments at tiny configurations.

Every matrix row runs narrowed to the first value of each axis at one trial
and must reproduce ``tests/golden/figures.json`` exactly; the golden holds
the rows the per-figure modules produced before they became rows of
:data:`repro.experiments.figures.FIGURES`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.figures import FIGURES, MEASURED, Figure, run_figure
from repro.experiments.fig01_motivation import run_fig01
from repro.experiments.fig13_testcluster_votes import run_fig13
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sec72_two_links import run_sec72
from repro.experiments.sec82_everflow_validation import run_sec82
from repro.experiments.sec83_vm_reboots import run_sec83
from repro.experiments.sweeps import theorem2_bound_label
from repro.experiments.table1_icmp import run_table1
from repro.theory.theorem2 import max_detectable_bad_links

GOLDEN = json.loads((Path(__file__).parent / "golden" / "figures.json").read_text())


def narrowed(figure: Figure, **axes) -> Figure:
    """``figure`` with the named axes replaced and every other axis cut to its
    first value."""
    panels = tuple(
        replace(panel, axes={c: axes.get(c, values[:1]) for c, values in panel.axes.items()})
        for panel in figure.panels
    )
    return replace(figure, panels=panels)


def _nan_as_none(row: dict) -> dict:
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}


class TestFigureMatrix:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_row_at_its_first_axis_values_matches_the_golden(self, name):
        result = run_figure(narrowed(FIGURES[name]), trials=1)
        assert {
            "name": result.name,
            "description": result.description,
            "rows": [_nan_as_none(row) for row in result.rows()],
        } == GOLDEN[name]

    def test_the_golden_covers_every_row_and_only_the_rows(self):
        assert set(GOLDEN) == set(FIGURES)
        assert not set(FIGURES) & set(MEASURED)

    def test_experiments_md_tables_exactly_the_registry(self):
        text = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
        table = re.search(r"^\| name \| paper artifact \|.*?\n\n", text, re.M | re.S).group(0)
        names = re.findall(r"^\| `(\w+)` \|", table, re.M)
        assert sorted(names) == sorted([*FIGURES, *MEASURED])
        assert len(names) == len(set(names))


class TestSimulationFigures:
    def test_fig01_rows(self):
        result = run_fig01(epochs=2, num_bad_links=2, seed=0)
        panels = {p.parameters["panel"] for p in result.points}
        assert panels == {"1a", "1b"}

    def test_table1_budget_holds(self):
        result = run_table1(epochs=2, num_bad_links=2, seed=0)
        ours = result.points[0].metrics
        assert ours["max_T"] <= ours["tmax"]
        assert ours["frac_T=0"] + ours["frac_0<T<=3"] + ours["frac_T>3"] == pytest.approx(1.0)

    def test_fig03_and_fig04_state_theorem2s_bound_and_the_k_past_it(self):
        """The bound quoted is Theorem 2's on the base fabric (k < 7.6), and
        every swept k past it is named as outside it, never as inside."""
        bound = max_detectable_bad_links(ScenarioConfig().topology_params())
        (panel,) = FIGURES["fig03"].panels
        assert theorem2_bound_label(ScenarioConfig(), panel.axes["num_failed_links"]) == (
            f"Theorem 2 bound k < {bound:.1f}; k = 10, 14 outside it"
        )
        stating = [name for name, figure in FIGURES.items() if figure.theorem2]
        assert stating == ["fig03", "fig04"]
        for name in stating:
            result = run_figure(narrowed(FIGURES[name], num_failed_links=(2, 10)), trials=1)
            stated = re.search(r"Theorem 2 bound k < ([\d.]+); (.*)$", result.description)
            assert stated is not None, result.description
            assert float(stated.group(1)) == pytest.approx(bound, abs=0.05)
            assert stated.group(2) == "k = 10 outside it"

    @pytest.mark.parametrize(
        "config, counts, stated",
        [
            (ScenarioConfig(), (2, 6), "k < 7.6; every k inside it"),
            (ScenarioConfig(), (), "k < 7.6; every k inside it"),
            (ScenarioConfig(), (14, 2, 10), "k < 7.6; k = 14, 10 outside it"),
            (ScenarioConfig(npod=3), (2, 6, 10, 14), "k < 5.8; k = 6, 10, 14 outside it"),
        ],
        ids=["inside", "empty", "sweep-order", "three-pods"],
    )
    def test_theorem2_bound_label_follows_the_fabric_and_the_sweep(self, config, counts, stated):
        assert max_detectable_bad_links(config.topology_params()) == pytest.approx(
            float(stated.split()[2].rstrip(";")), abs=0.05
        )
        assert theorem2_bound_label(config, counts) == f"Theorem 2 bound {stated}"


class TestClusterAndProductionFigures:
    def test_fig13_gap_larger_for_higher_drop_rate(self):
        result = run_fig13(drop_rates=(1e-2, 5e-4), epochs=2, seed=0)
        gaps = result.metric_series("median_vote_gap")
        assert gaps[0] >= gaps[1]

    def test_sec72_accuracy_defined(self):
        result = run_sec72(epochs=2, seed=0)
        accuracy = result.points[0].metrics["per_connection_accuracy"]
        assert np.isnan(accuracy) or 0.0 <= accuracy <= 1.0

    def test_sec82_path_validation(self):
        result = run_sec82(epochs=2, seed=0)
        metrics = result.points[0].metrics
        if not np.isnan(metrics["path_match_rate"]):
            assert metrics["path_match_rate"] >= 0.9

    def test_sec83_reboots_diagnosed(self):
        result = run_sec83(epochs=3, seed=0)
        metrics = result.points[0].metrics
        assert metrics["total_reboots"] >= 0
        fractions = [
            metrics["frac_detections_host_tor"],
            metrics["frac_detections_tor_t1"],
            metrics["frac_detections_t1_t2"],
        ]
        assert all(0.0 <= f <= 1.0 for f in fractions)
