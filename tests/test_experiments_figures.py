"""Smoke tests for the per-figure experiment modules (tiny configurations).

The full-size regenerations live in ``benchmarks/``; here we only verify that
every experiment module runs end to end and produces rows of the expected
shape, so the benchmark harness cannot silently rot.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_adjustment_ablation,
    run_threshold_ablation,
    run_vote_policy_ablation,
)
from repro.experiments.fig01_motivation import run_fig01
from repro.experiments.fig03_accuracy_optimal import DEFAULT_FAILED_LINK_COUNTS, run_fig03
from repro.experiments.fig04_detection_optimal import run_fig04
from repro.experiments.fig05_drop_rates import run_fig05_single
from repro.experiments.fig06_noise import run_fig06
from repro.experiments.fig09_hot_tor import run_fig09
from repro.experiments.fig10_detection_single import run_fig10
from repro.experiments.fig11_link_location import run_fig11
from repro.experiments.fig12_skewed_drop_rates import run_fig12
from repro.experiments.fig13_testcluster_votes import run_fig13
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sec67_network_size import run_sec67
from repro.experiments.sec72_two_links import run_sec72
from repro.experiments.sec82_everflow_validation import run_sec82
from repro.experiments.sec83_vm_reboots import run_sec83
from repro.experiments.sweeps import theorem2_bound_label
from repro.experiments.table1_icmp import run_table1
from repro.theory.theorem2 import max_detectable_bad_links


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

    def test_fig03_accuracy_high_for_single_point(self):
        result = run_fig03(failed_link_counts=(2,), trials=1, seed=0, include_baselines=False)
        assert len(result.points) == 1
        accuracy = result.points[0].metrics["accuracy_007"]
        assert np.isnan(accuracy) or accuracy >= 0.5

    def test_fig04_detection_metrics_present(self):
        result = run_fig04(failed_link_counts=(2,), trials=1, seed=0, include_baselines=False)
        assert {"precision_007", "recall_007"} <= set(result.points[0].metrics)

    def test_fig03_and_fig04_state_theorem2s_bound_and_the_k_past_it(self):
        """The bound quoted is Theorem 2's on the base fabric (k < 7.6), and
        every swept k past it is named as outside it, never as inside."""
        bound = max_detectable_bad_links(ScenarioConfig().topology_params())
        assert theorem2_bound_label(ScenarioConfig(), DEFAULT_FAILED_LINK_COUNTS) == (
            f"Theorem 2 bound k < {bound:.1f}; k = 10, 14 outside it"
        )
        for run in (run_fig03, run_fig04):
            result = run(failed_link_counts=(2, 10), trials=1, seed=0, include_baselines=False)
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

    def test_fig05_single_sweep_shape(self):
        result = run_fig05_single(drop_rates=(5e-3,), trials=1, seed=0, include_baselines=False)
        assert result.points[0].parameters["drop_rate"] == 5e-3

    def test_fig06_noise_rows(self):
        result = run_fig06(
            noise_levels=(1e-6,), failed_link_counts=(1,), trials=1, seed=0, include_baselines=False
        )
        assert len(result.points) == 1

    def test_fig09_hot_tor_rows(self):
        result = run_fig09(skews=(0.5,), failed_link_counts=(1,), trials=1, seed=0)
        assert result.points[0].parameters["skew"] == 0.5

    def test_fig10_rows(self):
        result = run_fig10(drop_rates=(5e-3,), trials=1, seed=0, include_baselines=False)
        assert len(result.points) == 1

    def test_fig11_locations(self):
        result = run_fig11(drop_rates=(5e-3,), trials=1, seed=0)
        assert len(result.points) == 4

    def test_fig12_metrics_are_probabilities(self):
        result = run_fig12(failed_link_counts=(2,), trials=1, seed=0, include_baselines=False)
        point = result.points[0]
        for name in ("precision_007", "recall_007", "topk_recall_007"):
            assert 0.0 <= point.metrics[name] <= 1.0

    def test_sec67_rows(self):
        result = run_sec67(pod_counts=(2,), trials=1, seed=0, include_baselines=False, many_failures=0)
        assert len(result.points) == 1


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


class TestAblations:
    def test_vote_policy_rows(self):
        result = run_vote_policy_ablation(trials=1, seed=0, num_bad_links=2)
        assert {p.parameters["vote_policy"] for p in result.points} == {"inverse_hops", "unit"}

    def test_threshold_rows(self):
        result = run_threshold_ablation(thresholds=(0.01, 0.05), trials=1, seed=0, num_bad_links=2)
        assert len(result.points) == 2

    def test_adjustment_rows(self):
        result = run_adjustment_ablation(trials=1, seed=0, num_bad_links=2)
        assert {p.parameters["adjustment"] for p in result.points} == {"paths", "none"}
