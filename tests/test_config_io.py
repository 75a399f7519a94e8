"""Scenario configs as shareable JSON files.

``ScenarioConfig.to_dict()/from_dict()`` (and the embedded
``ScenarioScript`` and ``BlameConfig`` forms, all written by
``repro.util.jsonable``) must round-trip losslessly, refuse garbage with a
``ValueError`` naming its key path, and the CLI must be able to dump and
re-run a scenario from such a file.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.blame import BlameConfig
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.netsim.script import (
    CongestionBurst,
    FabricExpansion,
    ScenarioScript,
    TrafficShift,
)
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
        with pytest.raises(ValueError, match=r"events\[0\]\.kind: unknown kind 'meteor'"):
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


# ----------------------------------------------------------------------
# garbage documents: one ValueError naming the key path
# ----------------------------------------------------------------------
def full_document() -> dict:
    return ScenarioConfig(script=full_script()).to_dict()


def _set(path, value):
    """A mutation that sets ``value`` at ``path`` (keys and list indices)."""

    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _drop(path):
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return mutate


def _event(index, key, value):
    return _set(("script", "events", index, key), value)


# full_script()'s events: 0 flap, 2 burst, 3 reboot, 5 drain, 7 shift,
# 9 linecard, 11 expand.  Each row: (id, mutation, the error's path).
#: garbage the per-class codecs that ``repro.util.jsonable`` replaced let
#: through: coerced, truncated or ignored.
FORMERLY_ACCEPTED = [
    ("config-int-as-str", _set(("npod",), "2"), r"npod: expected int, got '2'"),
    ("config-float-as-int", _set(("epochs",), 2.5), r"epochs: expected int"),
    ("config-str-as-bool", _set(("use_slb",), "false"), r"use_slb: expected bool"),
    (
        "config-traffic",
        _set(("traffic",), "bogus"),
        r"traffic: expected typing\.Literal\['uniform', 'skewed', 'hot_tor'\], got 'bogus'",
    ),
    ("config-vote-policy", _set(("vote_policy",), "all"), r"vote_policy: expected"),
    (
        "config-engine",
        _set(("engine",), "gpu"),
        r"engine: expected typing\.Literal\['dicts', 'arrays'\]",
    ),
    ("config-bool-as-level", _set(("failure_levels", 1), True), r"failure_levels\[1\]"),
    ("script-unknown-key", _set(("script", "loop"), True), r"\['script\.loop'\]"),
    ("script-not-an-object", _set(("script",), []), r"script: expected ScenarioScript"),
    ("flap-truncated", _event(0, "duration_epochs", 2.7), r"events\[0\]\.duration_epochs"),
    ("burst-typo", _event(2, "levl", 2), r"\['script\.events\[2\]\.levl'\]"),
    ("reboot-bool-as-int", _event(3, "outage_epochs", True), r"events\[3\]\.outage_epochs"),
    (
        "drain-three-ends",
        _event(5, "link", ["a", "b", "c"]),
        r"events\[5\]\.link: expected typing\.Tuple\[str, str\]",
    ),
    ("shift-typo", _event(7, "hot_tor_skw", 0.9), r"\['script\.events\[7\]\.hot_tor_skw'\]"),
    ("shift-traffic", _event(7, "traffic", "incast"), r"events\[7\]\.traffic: expected"),
    ("linecard-str-as-bool", _event(9, "blackhole", "false"), r"events\[9\]\.blackhole"),
    ("expand-int-as-name", _event(11, "switch", 7), r"events\[11\]\.switch: expected str, got 7"),
    ("blame-typo", _set(("blame", "treshold"), 0.1), r"\['blame\.treshold'\]"),
    ("blame-str-as-int", _set(("blame", "max_links"), "5"), r"blame\.max_links: expected int"),
    # an int too large for a float (json.loads reads a long run of digits as an int)
    ("config-float-overflow", _set(("hot_fraction",), 10**400), r"hot_fraction: expected float"),
]
#: garbage those codecs refused as well.
FORMERLY_REFUSED = [
    ("config-typo", _set(("typo_field",), 1), r"unknown ScenarioConfig keys: \['typo_field'\]"),
    (
        "config-pair-arity",
        _set(("connections_per_host",), [1, 2, 3]),
        r"connections_per_host: expected typing\.Union\[int, typing\.Tuple\[int, int\]\], "
        r"got \[1, 2, 3\]",
    ),
    (
        "config-range-arity",
        _set(("drop_rate_range",), [0.1]),
        r"drop_rate_range: expected typing\.Tuple\[float, float\], got \[0.1\]",
    ),
    (
        "config-enum-range",
        _set(("failure_level",), 9),
        r"failure_level: expected LinkLevel, got 9",
    ),
    ("reboot-tier-name", _event(3, "tier", "T1"), r"events\[3\]\.tier: expected SwitchTier"),
    (
        "blame-out-of-range",
        _set(("blame", "threshold_fraction"), 2.0),
        r"blame: threshold_fraction must be in",
    ),
    ("event-kind-unhashable", _event(0, "kind", []), r"events\[0\]\.kind: unknown kind \[\]"),
    # these two raised KeyError / IndexError, not ValueError
    (
        "flap-missing-start",
        _drop(("script", "events", 0, "start_epoch")),
        r"events\[0\]\.start_epoch: missing key",
    ),
    (
        "flap-one-end",
        _event(1, "link", ["pod0-tor0"]),
        r"events\[1\]\.link: expected typing\.Tuple\[str, str\]",
    ),
]


class TestGarbageDocuments:
    @pytest.mark.parametrize(
        "mutate, path",
        [pytest.param(m, p, id=i) for i, m, p in FORMERLY_ACCEPTED + FORMERLY_REFUSED],
    )
    def test_a_fault_raises_with_its_key_path(self, mutate, path):
        document = full_document()
        mutate(document)
        with pytest.raises(ValueError, match=path):
            ScenarioConfig.from_dict(document)

    def test_every_fault_of_a_document_is_named_at_once(self):
        document = full_document()
        for _, mutate, _ in FORMERLY_ACCEPTED[:3]:
            mutate(document)
        with pytest.raises(ValueError) as raised:
            ScenarioConfig.from_dict(document)
        assert [fault.split(":")[0] for fault in str(raised.value).split("; ")] == [
            "npod",
            "epochs",
            "use_slb",
        ]

    def test_missing_keys_take_the_defaults(self):
        burst = {"kind": "burst", "start_epoch": 1, "duration_epochs": 2}
        document = {"epochs": 3, "script": {"events": [burst]}}
        config = ScenarioConfig.from_dict(document)
        assert config == ScenarioConfig(
            epochs=3, script=ScenarioScript([CongestionBurst(start_epoch=1, duration_epochs=2)])
        )

    def test_a_float_field_takes_an_int(self):
        assert ScenarioConfig.from_dict({"hot_fraction": 1}).hot_fraction == 1.0
