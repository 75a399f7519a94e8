"""End-to-end tests of time-varying scenarios through the full 007 pipeline."""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core.aggregate import MultiEpochAggregator
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.scenario import ScenarioConfig, run_scenario, run_trials
from repro.netsim.script import ScenarioScript
from repro.netsim.traffic import SkewedTraffic
from repro.topology.elements import LinkLevel, SwitchTier

#: small fabric shared by the dynamic tests (fast but non-trivial).
FAST = dict(npod=2, n0=4, n1=2, n2=2, hosts_per_tor=2, connections_per_host=25)


def flap_config(engine: str = "arrays", seed: int = 7) -> ScenarioConfig:
    """A clean fabric with one scripted ToR-T1 flap during epochs [2, 5)."""
    script = ScenarioScript().flap(
        start=2, duration=3, drop_rate=2e-2, level=LinkLevel.LEVEL1
    )
    return ScenarioConfig(
        **FAST, failure_kind="none", epochs=8, seed=seed, engine=engine, script=script
    )


class TestScriptedFlapEndToEnd:
    """The acceptance scenario: ground truth varies, 007 tracks it in time."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(flap_config())

    def test_ground_truth_varies_per_epoch(self, result):
        active = [bool(t.bad_links) for t in result.truth_by_epoch]
        assert active == [False, False, True, True, True, False, False, False]

    def test_flap_detected_within_active_window(self, result):
        latencies = result.time_to_detection_007()
        assert len(latencies) == 1
        (latency,) = latencies.values()
        assert latency is not None and 0 <= latency < 3

    def test_no_false_alarms_after_flap_clears(self, result):
        assert result.false_alarm_rate_007() == 0.0

    def test_per_epoch_scores_match_manual_detection_007(self, result):
        scores = result.per_epoch_detection_007()
        assert len(scores) == 8
        for i, score in enumerate(scores):
            assert score == result.detection_007(epoch_index=i)

    def test_clean_epochs_detect_nothing(self, result):
        for i, truth in enumerate(result.truth_by_epoch):
            if not truth.bad_links:
                # noise floor is ~1e-6; a detection would need 2+ voting flows
                assert result.reports[i].detected_links == []

    def test_system_ground_truth_accessor(self, result):
        assert result.system.ground_truth(2).bad_links == result.truth_by_epoch[2].bad_links
        with pytest.raises(KeyError):
            result.system.ground_truth(99)


class TestEngineEquivalenceDynamic:
    def test_engines_produce_bit_identical_reports_and_truth(self):
        arrays = run_scenario(flap_config(engine="arrays"))
        dicts = run_scenario(flap_config(engine="dicts"))
        assert [t.bad_links for t in arrays.truth_by_epoch] == [
            t.bad_links for t in dicts.truth_by_epoch
        ]
        assert [t.drop_rates for t in arrays.truth_by_epoch] == [
            t.drop_rates for t in dicts.truth_by_epoch
        ]
        for ref, got in zip(dicts.reports, arrays.reports):
            assert got.detected_links == ref.detected_links
            assert got.ranked_links == ref.ranked_links  # exact floats, exact order
            assert got.flow_causes == ref.flow_causes
            assert got.noise.noise_flows == ref.noise.noise_flows
            assert got.noise.failure_flows == ref.noise.failure_flows


class TestOtherTimelines:
    def test_burst_puts_several_links_in_truth(self):
        script = ScenarioScript().burst(
            start=1, duration=2, level=LinkLevel.LEVEL2, num_links=3, drop_rate=2e-2
        )
        config = ScenarioConfig(
            **FAST, failure_kind="none", epochs=4, seed=3, script=script
        )
        result = run_scenario(config)
        assert len(result.truth_by_epoch[1].bad_links) == 3
        assert len(result.truth_by_epoch[3].bad_links) == 0

    def test_reboot_changes_ecmp_seed_and_clears(self):
        script = ScenarioScript().reboot_switch(
            epoch=1, tier=SwitchTier.T1, outage_epochs=1
        )
        config = ScenarioConfig(
            **FAST, failure_kind="none", epochs=4, seed=5, script=script
        )
        result = run_scenario(config)
        outage_truth = result.truth_by_epoch[1]
        assert outage_truth.bad_links
        assert all(rate == 1.0 for rate in outage_truth.drop_rates.values())
        assert result.truth_by_epoch[2].bad_links == []
        # flows hashed through the dead switch fail during the outage
        assert any(f.connection_failed for f in result.epoch_results[1].flows)

    def test_static_and_scripted_failures_compose(self):
        script = ScenarioScript().flap(
            start=1, duration=1, drop_rate=2e-2, level=LinkLevel.LEVEL2
        )
        config = ScenarioConfig(
            **FAST,
            num_bad_links=1,
            drop_rate_range=(1e-2, 1e-2),
            epochs=3,
            seed=9,
            script=script,
        )
        result = run_scenario(config)
        static = set(result.failure_scenario.bad_links)
        assert set(result.truth_by_epoch[0].bad_links) == static
        assert static < set(result.truth_by_epoch[1].bad_links)
        assert set(result.truth_by_epoch[2].bad_links) == static

    def test_traffic_shift_swaps_generator_mid_run(self):
        script = ScenarioScript().shift_traffic(
            epoch=1, traffic="skewed", num_hot_tors=2, hot_fraction=0.9
        )
        config = ScenarioConfig(
            **FAST, failure_kind="none", epochs=2, seed=1, script=script
        )
        result = run_scenario(config)
        assert isinstance(result.system.simulator.traffic, SkewedTraffic)

    def test_static_scenarios_still_record_constant_truth(self):
        config = ScenarioConfig(
            **FAST, num_bad_links=2, drop_rate_range=(1e-2, 1e-2), epochs=2, seed=4
        )
        result = run_scenario(config)
        expected = sorted(result.failure_scenario.bad_links)
        for truth in result.truth_by_epoch:
            assert truth.bad_links == expected


class TestAggregatorWithTruth:
    def test_truth_columns_and_false_alarm_fraction(self):
        result = run_scenario(flap_config())
        aggregator = MultiEpochAggregator(topology=result.topology)
        aggregator.ingest_many(result.reports, truths=result.truth_by_epoch)

        assert aggregator.epochs_ingested == 8
        assert aggregator.epochs_with_truth == 8
        (flapped,) = result.truth_by_epoch[2].bad_links
        record = aggregator.record_of(flapped)
        assert record is not None
        assert record.epochs_bad == 3
        assert record.true_detections >= 1
        assert record.false_detections == 0

        true_events, false_events = aggregator.detection_event_counts()
        assert true_events >= 1 and false_events == 0
        assert aggregator.false_alarm_fraction() == 0.0

    def test_truth_length_mismatch_raises(self):
        result = run_scenario(flap_config())
        aggregator = MultiEpochAggregator()
        with pytest.raises(ValueError):
            aggregator.ingest_many(result.reports, truths=result.truth_by_epoch[:-1])

    def test_without_truth_behaviour_unchanged(self):
        result = run_scenario(flap_config())
        aggregator = MultiEpochAggregator()
        aggregator.ingest_many(result.reports)
        assert aggregator.epochs_with_truth == 0
        assert np.isnan(aggregator.false_alarm_fraction())


class TestRunTrialsAliasing:
    def test_trials_do_not_share_the_blame_config(self):
        config = ScenarioConfig(
            **FAST, num_bad_links=1, seed=3, drop_rate_range=(5e-3, 5e-3)
        )
        results = run_trials(config, trials=2)
        assert results[0].config.blame is not results[1].config.blame
        assert results[0].config.blame is not config.blame
        assert results[0].config.blame == config.blame  # equal values, distinct objects


class TestSweepAndCliExposure:
    def test_sec66_experiment_runs(self):
        (panel,) = FIGURES["sec66"].panels
        panel = replace(
            panel,
            base={**panel.base, "epochs": 6},
            axes={**panel.axes, "flap_drop_rate": (1e-2,)},
        )
        result = run_figure(replace(FIGURES["sec66"], panels=(panel,)), trials=1)
        (point,) = result.points
        assert point.parameters["flap_drop_rate"] == 1e-2
        assert 0.0 <= point.metrics["mean_epoch_precision_007"] <= 1.0
        assert point.metrics["false_alarm_rate_007"] == 0.0

    def test_dynamic_configs_survive_worker_pickling(self):
        # the sweep runner ships configs to worker processes; a scripted
        # config must round-trip
        import pickle

        config = flap_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone.script.events == config.script.events

    def test_cli_timeline_flap(self):
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--pods", "2",
                "--tors-per-pod", "4",
                "--t1-per-pod", "2",
                "--t2", "2",
                "--hosts-per-tor", "2",
                "--bad-links", "0",
                "--connections-per-host", "25",
                "--epochs", "8",
                "--timeline", "flap",
                "--event-rate", "0.02",
                "--seed", "0",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "per-epoch timeline:" in text
        assert "time to detection" in text
        assert "false-alarm rate after clear" in text

    def test_cli_engine_flag(self):
        args_sets = []
        for engine in ("arrays", "dicts"):
            out = io.StringIO()
            code = main(
                [
                    "scenario",
                    "--pods", "2",
                    "--tors-per-pod", "4",
                    "--t1-per-pod", "2",
                    "--t2", "2",
                    "--hosts-per-tor", "2",
                    "--connections-per-host", "25",
                    "--engine", engine,
                    "--seed", "3",
                ],
                out=out,
            )
            assert code == 0
            args_sets.append(out.getvalue())
        assert args_sets[0] == args_sets[1]  # engines agree on the CLI output too
