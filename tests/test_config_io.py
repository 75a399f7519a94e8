"""Scenario configs as shareable JSON files.

``ScenarioConfig.to_dict()/from_dict()`` (and the embedded
``ScenarioScript`` codec) must round-trip losslessly, and the CLI must be
able to dump and re-run a scenario from such a file.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.blame import BlameConfig
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.netsim.script import FabricExpansion, ScenarioScript, TrafficShift
from repro.topology.elements import DirectedLink, Link, LinkLevel, SwitchTier


def full_script() -> ScenarioScript:
    return (
        ScenarioScript()
        .flap(start=1, duration=2, drop_rate=0.02, level=LinkLevel.LEVEL1)
        .flap(start=4, duration=1, link=DirectedLink("pod0-tor0", "pod0-t1-0"))
        .burst(start=2, duration=2, level=LinkLevel.LEVEL2, num_links=2, drop_rate=5e-3)
        .reboot_switch(epoch=6, tier=SwitchTier.T1, outage_epochs=2)
        .reboot_switch(epoch=8, switch="t2-0", tier=None)
        .drain(start=3, duration=1, link=Link.of("t2-0", "pod1-t1-0"))
        .drain(start=5, duration=2, level=LinkLevel.HOST)
        .add(TrafficShift(epoch=7, traffic="skewed", connections_per_host=(10, 20)))
        .add(TrafficShift(epoch=9, traffic="hot_tor", hot_tor_skew=0.7))
        .linecard(start=2, duration=3, num_links=2, drop_rate=0.05,
                  blackhole=False, switch="pod0-t1-0")
        .linecard(start=6, duration=1, tier=SwitchTier.T2)
        .add(FabricExpansion(epoch=4, switch="t2-1"))
        .add(FabricExpansion(epoch=2, tier=SwitchTier.T1))
    )


class TestScenarioConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = ScenarioConfig()
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_full_config_round_trips_through_json(self):
        config = ScenarioConfig(
            npod=3,
            n0=5,
            hosts_per_tor=4,
            traffic="hot_tor",
            connections_per_host=(20, 60),
            packets_per_flow=(50, 150),
            hot_tor_skew=0.7,
            failure_kind="skewed",
            num_bad_links=3,
            drop_rate_range=(1e-3, 2e-2),
            noise_range=(0.0, 1e-7),
            failure_levels=(LinkLevel.HOST, LinkLevel.LEVEL2),
            failure_level=LinkLevel.LEVEL2,
            failure_downward=True,
            script=full_script(),
            epochs=9,
            seed=42,
            use_slb=False,
            engine="dicts",
            vote_policy="unit",
            blame=BlameConfig(threshold_fraction=0.05, min_flow_support=3),
            simulate_setup_failures=True,
            storage_flow_fraction=0.25,
        )
        # a true wire round-trip: dict -> JSON text -> dict -> config
        text = json.dumps(config.to_dict(), sort_keys=True)
        restored = ScenarioConfig.from_dict(json.loads(text))
        assert restored == config
        # field types survive exactly (tuples, enums, nested dataclasses)
        assert isinstance(restored.connections_per_host, tuple)
        assert restored.failure_levels == (LinkLevel.HOST, LinkLevel.LEVEL2)
        assert isinstance(restored.blame, BlameConfig)
        assert restored.script == full_script()

    def test_no_failure_levels_round_trips(self):
        config = ScenarioConfig(failure_levels=None)
        assert ScenarioConfig.from_dict(config.to_dict()).failure_levels is None

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown ScenarioConfig keys"):
            ScenarioConfig.from_dict({"epochs": 2, "typo_field": 1})

    def test_round_tripped_config_runs_identically(self):
        config = ScenarioConfig(
            npod=2,
            n0=4,
            n1=2,
            n2=2,
            hosts_per_tor=2,
            connections_per_host=25,
            num_bad_links=1,
            drop_rate_range=(1e-2, 1e-2),
            epochs=2,
            seed=5,
        )
        restored = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        original = run_scenario(config)
        replayed = run_scenario(restored)
        assert [r.detected_links for r in original.reports] == [
            r.detected_links for r in replayed.reports
        ]
        assert [r.ranked_links for r in original.reports] == [
            r.ranked_links for r in replayed.reports
        ]


class TestScriptRoundTrip:
    def test_script_round_trips_through_json(self):
        script = full_script()
        restored = ScenarioScript.from_dict(json.loads(json.dumps(script.to_dict())))
        assert restored == script

    def test_empty_script_round_trips(self):
        assert ScenarioScript.from_dict(ScenarioScript().to_dict()) == ScenarioScript()

    def test_unknown_event_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario event kind"):
            ScenarioScript.from_dict({"events": [{"kind": "meteor"}]})


class TestCliConfigFiles:
    SMALL = [
        "--pods", "2", "--tors-per-pod", "4", "--t1-per-pod", "2", "--t2", "2",
        "--hosts-per-tor", "2", "--connections-per-host", "25", "--seed", "3",
    ]

    def test_dump_config_then_run_config(self, tmp_path):
        path = tmp_path / "scenario.json"
        out = io.StringIO()
        code = main(
            ["scenario", *self.SMALL, "--timeline", "flap", "--epochs", "4",
             "--dump-config", str(path)],
            out=out,
        )
        assert code == 0 and path.exists()
        data = json.loads(path.read_text())
        assert data["epochs"] == 4
        assert data["script"]["events"][0]["kind"] == "flap"

        out = io.StringIO()
        code = main(["scenario", "--config", str(path)], out=out)
        text = out.getvalue()
        assert code == 0
        assert "per-epoch timeline" in text
        assert "top 5 voted links" in text

    def test_dump_config_to_stdout(self):
        out = io.StringIO()
        code = main(["scenario", *self.SMALL, "--dump-config", "-"], out=out)
        assert code == 0
        data = json.loads(out.getvalue())
        assert data["seed"] == 3
        # a dumped config parses back
        from repro.experiments.scenario import ScenarioConfig

        assert ScenarioConfig.from_dict(data).seed == 3
