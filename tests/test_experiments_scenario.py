"""Tests for the shared scenario runner and its scoring helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scenario import (
    ScenarioConfig,
    build_traffic,
    inject_failures,
    run_scenario,
)
from repro.netsim.links import LinkStateTable
from repro.netsim.traffic import HotTorTraffic, SkewedTraffic, UniformTraffic
from repro.topology.clos import ClosTopology
from repro.topology.elements import LinkLevel


#: a deliberately small configuration so the scenario tests stay fast.
FAST = dict(npod=2, n0=4, n1=2, n2=2, hosts_per_tor=2, connections_per_host=25)


class TestBuildTraffic:
    def test_uniform(self):
        config = ScenarioConfig(**FAST, traffic="uniform")
        topo = ClosTopology(config.topology_params())
        assert isinstance(build_traffic(config, topo), UniformTraffic)

    def test_skewed(self):
        config = ScenarioConfig(**FAST, traffic="skewed", num_hot_tors=2)
        topo = ClosTopology(config.topology_params())
        assert isinstance(build_traffic(config, topo), SkewedTraffic)

    def test_hot_tor(self):
        config = ScenarioConfig(**FAST, traffic="hot_tor")
        topo = ClosTopology(config.topology_params())
        assert isinstance(build_traffic(config, topo), HotTorTraffic)

    def test_unknown_kind_raises(self):
        config = ScenarioConfig(**FAST)
        config.traffic = "mystery"
        topo = ClosTopology(config.topology_params())
        with pytest.raises(ValueError):
            build_traffic(config, topo)


class TestInjectFailures:
    def test_random_failures(self):
        config = ScenarioConfig(**FAST, num_bad_links=3)
        topo = ClosTopology(config.topology_params())
        table = LinkStateTable(topo, rng=0)
        scenario = inject_failures(config, topo, table, seed=0)
        assert scenario.num_failures == 3

    def test_none_kind(self):
        config = ScenarioConfig(**FAST, failure_kind="none")
        topo = ClosTopology(config.topology_params())
        table = LinkStateTable(topo, rng=0)
        assert inject_failures(config, topo, table, 0).num_failures == 0

    def test_level_kind(self):
        config = ScenarioConfig(
            **FAST, failure_kind="level", failure_level=LinkLevel.LEVEL2, failure_downward=True
        )
        topo = ClosTopology(config.topology_params())
        table = LinkStateTable(topo, rng=0)
        scenario = inject_failures(config, topo, table, 0)
        assert scenario.num_failures == 1
        assert topo.link_level(scenario.bad_links[0]) == LinkLevel.LEVEL2

    def test_skewed_kind(self):
        config = ScenarioConfig(**FAST, failure_kind="skewed", num_bad_links=4)
        topo = ClosTopology(config.topology_params())
        table = LinkStateTable(topo, rng=0)
        scenario = inject_failures(config, topo, table, 0)
        assert max(scenario.drop_rates.values()) >= 0.1


class TestRunScenario:
    @pytest.fixture(scope="class")
    def result(self):
        config = ScenarioConfig(
            **FAST, num_bad_links=1, drop_rate_range=(1e-2, 1e-2), seed=5
        )
        return run_scenario(config)

    def test_structure(self, result):
        assert len(result.reports) == 1
        assert len(result.epoch_results) == 1
        assert result.failure_scenario.num_failures == 1

    def test_accuracy_scores_are_probabilities(self, result):
        accuracy = result.accuracy_007()
        assert np.isnan(accuracy) or 0.0 <= accuracy <= 1.0

    def test_detection_score_fields(self, result):
        score = result.detection_007()
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0

    def test_ground_truth_consistency(self, result):
        truth = result.true_flow_causes()
        hit = result.flows_through_bad_links()
        assert set(hit) <= set(truth)

    def test_baseline_inputs_align(self, result):
        routing, counts = result.baseline_inputs()
        assert routing.num_flows == len(counts)

    def test_baseline_detections_run(self, result):
        binary = result.binary_program_detection(exact=False)
        integer = result.integer_program_detection(exact=False)
        assert 0.0 <= binary.recall <= 1.0
        assert 0.0 <= integer.recall <= 1.0

    def test_integer_program_accuracy_runs(self, result):
        accuracy = result.accuracy_integer_program(exact=False)
        assert np.isnan(accuracy) or 0.0 <= accuracy <= 1.0
