"""The named scenario-pack library: loader, schema, goldens, CLI, windows.

Covers the pack registry (``repro.scenarios``), the strict schema validation
(unknown keys/versions rejected), the nan-aware golden comparison, the
``repro-007 pack`` CLI, worker-count determinism, the lossless round-trip of
every shipped scenario, and the regression test that netsim ground truth and
the loadgen bad links are the same links in every epoch for every script event
type (the off-by-one class of bug the pack exists to catch).
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import re
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import ScenarioConfig
from repro.loadgen.generator import EvidenceLoadGenerator
from repro.loadgen.profiles import WorkloadProfile
from repro.netsim.links import LinkStateTable
from repro.netsim.script import FabricExpansion, ScenarioScript, TrafficShift
from repro.scenarios import (
    PackValidationError,
    ScenarioOutcome,
    compare_to_golden,
    load_pack,
    load_scenario,
    outcome_document,
    run_pack,
    write_golden,
)
from repro.scenarios.pack import (
    _nan_mean,
    default_pack_dir,
    validate_expected_data,
    validate_scenario_data,
)
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.elements import DirectedLink, Link, LinkLevel, SwitchTier

REPO = pathlib.Path(__file__).resolve().parent.parent
PACK_DIR = REPO / "scenarios"

EXPECTED_NAMES = {
    "gray_failure_silent_drops",
    "core_vs_tor_vs_nic_placement",
    "correlated_linecard_failure",
    "rolling_maintenance_drain",
    "incast_burst",
    "flap_congestion_interference",
    "mid_run_fabric_expansion",
    "intermittent_connectivity",
}


@pytest.fixture(scope="module")
def pack():
    return load_pack(PACK_DIR)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_pack_ships_the_required_scenarios(self, pack):
        assert EXPECTED_NAMES <= set(pack)
        assert len(pack) >= 8

    def test_registry_is_sorted_by_name(self, pack):
        assert list(pack) == sorted(pack)

    def test_every_scenario_carries_a_golden(self, pack):
        missing = [name for name, s in pack.items() if s.expected is None]
        assert missing == []

    def test_ci_runs_every_scenario_against_its_golden(self, pack):
        """The goldens are checked only by CI's ``scenario-pack`` job, one
        matrix entry per scenario: a scenario left out is never checked."""
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        job = re.search(r"^  scenario-pack:\n(.*?)(?=^  \S)", ci, re.M | re.S).group(1)
        matrix = re.search(r"^( +)scenario:\n((?:\1  - \S+\n)+)", job, re.M).group(2)
        assert sorted(re.findall(r"- (\S+)", matrix)) == sorted(pack)

    def test_every_timeline_fits_inside_the_simulated_epochs(self, pack):
        for scenario in pack.values():
            script = scenario.config.script
            if script is not None:
                assert scenario.config.epochs >= script.horizon


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def write_pack_scenario(directory: pathlib.Path, document: dict) -> pathlib.Path:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "scenario.json", "w") as handle:
        json.dump(document, handle)
    return directory


def minimal_document(name: str) -> dict:
    return {
        "pack_version": 1,
        "name": name,
        "config": ScenarioConfig(epochs=1).to_dict(),
    }


class TestSchemaValidation:
    def test_minimal_document_loads(self, tmp_path):
        directory = write_pack_scenario(tmp_path / "ok", minimal_document("ok"))
        scenario = load_scenario(directory)
        assert scenario.name == "ok" and scenario.trials == 1

    def test_unknown_keys_are_rejected(self, tmp_path):
        document = minimal_document("bad")
        document["grafana_dashboard"] = "http://..."
        directory = write_pack_scenario(tmp_path / "bad", document)
        with pytest.raises(PackValidationError, match="unknown keys"):
            load_scenario(directory)

    def test_unsupported_version_is_rejected(self, tmp_path):
        document = minimal_document("bad")
        document["pack_version"] = 2
        directory = write_pack_scenario(tmp_path / "bad", document)
        with pytest.raises(PackValidationError, match="pack_version"):
            load_scenario(directory)

    def test_name_must_match_the_directory(self, tmp_path):
        directory = write_pack_scenario(tmp_path / "bad", minimal_document("good"))
        with pytest.raises(PackValidationError, match="does not match directory"):
            load_scenario(directory)

    def test_non_positive_trials_are_rejected(self, tmp_path):
        document = minimal_document("bad")
        document["trials"] = 0
        directory = write_pack_scenario(tmp_path / "bad", document)
        with pytest.raises(PackValidationError, match="trials"):
            load_scenario(directory)

    def test_unknown_config_keys_are_rejected(self, tmp_path):
        document = minimal_document("bad")
        document["config"]["warp_factor"] = 9
        directory = write_pack_scenario(tmp_path / "bad", document)
        with pytest.raises(PackValidationError, match="invalid config"):
            load_scenario(directory)

    def test_timeline_longer_than_epochs_is_rejected(self, tmp_path):
        config = ScenarioConfig(
            epochs=3, script=ScenarioScript().flap(start=2, duration=4)
        )
        document = minimal_document("bad")
        document["config"] = config.to_dict()
        directory = write_pack_scenario(tmp_path / "bad", document)
        with pytest.raises(PackValidationError, match="horizon"):
            load_scenario(directory)

    def test_unknown_metric_in_golden_is_rejected(self, tmp_path):
        directory = write_pack_scenario(tmp_path / "bad", minimal_document("bad"))
        with open(directory / "expected.json", "w") as handle:
            json.dump(
                {
                    "pack_version": 1,
                    "name": "bad",
                    "metrics": {"vibes_007": {"value": 1.0, "tolerance": 0.1}},
                },
                handle,
            )
        with pytest.raises(PackValidationError, match="unknown metric"):
            load_scenario(directory)

    def test_golden_tolerance_must_be_non_negative(self, tmp_path):
        directory = write_pack_scenario(tmp_path / "bad", minimal_document("bad"))
        with open(directory / "expected.json", "w") as handle:
            json.dump(
                {
                    "pack_version": 1,
                    "name": "bad",
                    "metrics": {
                        "mean_epoch_recall_007": {"value": 1.0, "tolerance": -0.1}
                    },
                },
                handle,
            )
        with pytest.raises(PackValidationError, match="tolerance"):
            load_scenario(directory)

    def test_empty_pack_directory_is_rejected(self, tmp_path):
        with pytest.raises(PackValidationError, match="no scenarios"):
            load_pack(tmp_path)

    def test_scenario_document_must_be_an_object(self):
        with pytest.raises(PackValidationError, match="JSON object"):
            validate_scenario_data([minimal_document("bad")], "bad")

    def test_tags_must_be_strings(self):
        document = minimal_document("bad")
        document["tags"] = ["gray", 7]
        with pytest.raises(PackValidationError, match="tags"):
            validate_scenario_data(document, "bad")


def golden_document(**overrides) -> dict:
    document = {
        "pack_version": 1,
        "name": "ok",
        "metrics": {"mean_epoch_recall_007": {"value": None, "tolerance": 0.0}},
        "per_epoch": {"precision": [1.0], "recall": [0, 1], "tolerance": 0.005},
    }
    document.update(overrides)
    return document


class TestGoldenValidation:
    def test_well_formed_golden_is_returned_unchanged(self):
        document = golden_document()
        assert validate_expected_data(document, "ok") is document

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"metrics": {}}, "non-empty"),
            ({"metrics": {"recall_007": 1.0}}, "unknown metric"),
            ({"metrics": {"mean_epoch_recall_007": 1.0}}, "must be an object"),
            (
                {"metrics": {"mean_epoch_recall_007": {"value": "high", "tolerance": 0}}},
                "number or null",
            ),
            ({"metrics": {"mean_epoch_recall_007": {"value": 1.0}}}, "missing keys"),
            (
                {"per_epoch": {"precision": [], "recall": [], "tolerance": 0, "f1": []}},
                "unknown keys",
            ),
            (
                {"per_epoch": {"precision": ["1.0"], "recall": [], "tolerance": 0}},
                "list of numbers",
            ),
        ],
        ids=[
            "empty-metrics",
            "static-metric",
            "entry-not-object",
            "value-not-number",
            "entry-missing-tolerance",
            "per-epoch-unknown-key",
            "per-epoch-non-numeric",
        ],
    )
    def test_malformed_golden_is_rejected(self, overrides, message):
        with pytest.raises(PackValidationError, match=message):
            validate_expected_data(golden_document(**overrides), "ok")

    def test_golden_document_must_be_an_object(self):
        with pytest.raises(PackValidationError, match="JSON object"):
            validate_expected_data("expected", "ok")


class TestDefaultPackDir:
    def test_environment_variable_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_PACK", str(tmp_path / "elsewhere"))
        assert default_pack_dir() == tmp_path / "elsewhere"

    def test_scenarios_in_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SCENARIO_PACK", raising=False)
        (tmp_path / "scenarios").mkdir()
        monkeypatch.chdir(tmp_path)
        assert default_pack_dir() == tmp_path / "scenarios"

    def test_falls_back_to_the_checkout_pack(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SCENARIO_PACK", raising=False)
        monkeypatch.chdir(tmp_path)
        assert default_pack_dir() == PACK_DIR


# ----------------------------------------------------------------------
# round-trip of every shipped scenario
# ----------------------------------------------------------------------
SHIPPED = sorted(
    child.name
    for child in PACK_DIR.iterdir()
    if child.is_dir() and (child / "scenario.json").is_file()
)


class TestShippedScenarioRoundTrip:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_to_dict_from_dict_is_lossless(self, name):
        scenario = load_scenario(PACK_DIR / name)
        config = scenario.config
        restored = ScenarioConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config

    @pytest.mark.parametrize("name", SHIPPED)
    def test_cli_dump_config_round_trips(self, name, tmp_path):
        """``--config scenario.json`` -> ``--dump-config`` reproduces the config."""
        scenario = load_scenario(PACK_DIR / name)
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as handle:
            json.dump(scenario.config.to_dict(), handle)
        dumped_path = tmp_path / "dumped.json"
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--config",
                str(config_path),
                "--dump-config",
                str(dumped_path),
            ],
            out=out,
        )
        assert code == 0
        with open(dumped_path) as handle:
            restored = ScenarioConfig.from_dict(json.load(handle))
        assert restored == scenario.config

    @pytest.mark.parametrize("name", SHIPPED)
    def test_cli_accepts_the_pack_envelope_directly(self, name, tmp_path):
        """``scenario --config scenarios/<name>/scenario.json`` unwraps the
        pack envelope, so a shipped scenario is runnable as-is."""
        scenario = load_scenario(PACK_DIR / name)
        dumped_path = tmp_path / "dumped.json"
        out = io.StringIO()
        code = main(
            [
                "scenario",
                "--config",
                str(PACK_DIR / name / "scenario.json"),
                "--dump-config",
                str(dumped_path),
            ],
            out=out,
        )
        assert code == 0
        with open(dumped_path) as handle:
            restored = ScenarioConfig.from_dict(json.load(handle))
        assert restored == scenario.config


# ----------------------------------------------------------------------
# netsim ground truth == loadgen bad links, epoch by epoch, per event type
# ----------------------------------------------------------------------
TINY_PARAMS = ClosParameters(npod=2, n0=2, n1=2, n2=2, hosts_per_tor=1)

FLAP_LINK = DirectedLink("pod0-tor0", "pod0-t1-0")
DRAIN_LINK = Link.of("pod1-tor1", "pod1-t1-1")

WINDOW_SCRIPTS = {
    "flap_explicit": ScenarioScript().flap(
        start=1, duration=2, drop_rate=0.02, link=FLAP_LINK
    ),
    "flap_random": ScenarioScript().flap(
        start=2, duration=1, level=LinkLevel.LEVEL2
    ),
    "burst": ScenarioScript().burst(
        start=1, duration=3, level=LinkLevel.LEVEL1, num_links=2
    ),
    # 9 of the 16 directed level-1 links: more than there are physical ones
    "burst_nine": ScenarioScript().burst(
        start=0, duration=2, level=LinkLevel.LEVEL1, num_links=9
    ),
    "drain_explicit": ScenarioScript().drain(start=2, duration=2, link=DRAIN_LINK),
    "drain_random": ScenarioScript().drain(start=1, duration=2, level=LinkLevel.LEVEL2),
    "reboot": ScenarioScript().reboot_switch(
        epoch=1, switch="pod0-t1-1", outage_epochs=2
    ),
    "reboot_random": ScenarioScript().reboot_switch(epoch=2, tier=SwitchTier.TOR),
    "linecard": ScenarioScript().linecard(
        start=2, duration=2, num_links=2, switch="pod1-t1-0"
    ),
    "linecard_random": ScenarioScript().linecard(
        start=1, duration=2, num_links=2, drop_rate=0.05, blackhole=False,
        tier=SwitchTier.T2,
    ),
    "expand": ScenarioScript().add(FabricExpansion(epoch=3, switch="t2-1")),
    "expand_random": ScenarioScript().add(FabricExpansion(epoch=2)),
    # every kind in one script: later events draw after earlier ones
    "every_kind": (
        ScenarioScript()
        .flap(start=0, duration=2, level=LinkLevel.HOST)
        .burst(start=1, duration=2, level=LinkLevel.LEVEL2, num_links=3)
        .drain(start=2, duration=1)
        .reboot_switch(epoch=1, tier=SwitchTier.T2)
        .linecard(start=3, duration=1, num_links=1)
        .add(FabricExpansion(epoch=1, tier=SwitchTier.T1))
        .add(TrafficShift(epoch=2, traffic="skewed"))
    ),
}

EXPLICIT_VICTIMS = {
    "flap_explicit": {FLAP_LINK},
    "drain_explicit": set(DRAIN_LINK.directions()),
    "expand": {
        d
        for link in ClosTopology(TINY_PARAMS).links_of_node("t2-1")
        for d in link.directions()
    },
    "reboot": {
        d
        for link in ClosTopology(TINY_PARAMS).links_of_node("pod0-t1-1")
        for d in link.directions()
    },
}


def both_sides(script, seed):
    """The compiled script and the load generator, handed one generator
    state: the load generator draws its victims from
    ``default_rng([seed, 0xFAB])`` (no static bad links draw before)."""
    topology = ClosTopology(TINY_PARAMS)
    compiled = script.compile(
        topology, LinkStateTable(topology, rng=0), rng=np.random.default_rng([seed, 0xFAB])
    )
    generator = EvidenceLoadGenerator(
        fabric=TINY_PARAMS,
        profile=WorkloadProfile(num_bad_links=0),
        script=script,
        seed=seed,
        events_per_epoch=0,
    )
    return topology, compiled, generator


class TestWindowAgreement:
    """Netsim's ground truth and loadgen's bad links are the same links in
    every epoch, for every event kind, random victims included: both read
    the script through one resolver (``ScenarioScript.resolve``)."""

    @pytest.mark.parametrize("kind", sorted(WINDOW_SCRIPTS))
    def test_netsim_and_loadgen_agree_victim_for_victim(self, kind):
        script = WINDOW_SCRIPTS[kind]
        for seed in range(20):
            _, compiled, generator = both_sides(script, seed)
            assert compiled.horizon == script.horizon
            for epoch in range(script.horizon + 2):
                truth = set(compiled.apply_epoch(epoch).bad_links)
                bad = set(generator.bad_links_for_epoch(epoch))
                assert truth == bad, f"{kind} seed {seed} epoch {epoch}"
                # nothing leaks past the declared horizon
                assert not truth or epoch < script.horizon
                if truth and kind in EXPLICIT_VICTIMS:
                    assert truth == EXPLICIT_VICTIMS[kind]

    def test_random_victims_vary_with_the_seed(self):
        script = WINDOW_SCRIPTS["flap_random"]
        victims = {
            tuple(both_sides(script, seed)[2].bad_links_for_epoch(2)) for seed in range(20)
        }
        assert len(victims) > 1

    def test_a_burst_of_nine_is_nine_links_on_both_sides(self):
        _, compiled, generator = both_sides(WINDOW_SCRIPTS["burst_nine"], 0)
        truth = compiled.apply_epoch(0).bad_links
        assert len(set(truth)) == 9
        assert len(set(generator.bad_links_for_epoch(0))) == 9

    def test_linecard_victims_stay_on_the_switch_in_both_engines(self):
        topology, compiled, generator = both_sides(WINDOW_SCRIPTS["linecard"], 3)
        adjacent = {
            d
            for link in topology.links_of_node("pod1-t1-0")
            for d in link.directions()
        }
        truth = set(compiled.apply_epoch(2).bad_links)
        bad = set(generator.bad_links_for_epoch(2))
        assert truth <= adjacent and len(truth) == 4  # 2 links, both directions
        assert bad == truth


# ----------------------------------------------------------------------
# nan-aware aggregation and golden comparison
# ----------------------------------------------------------------------
def _metric_nan_for_odd_seed(result) -> float:
    return float("nan") if result.config.seed % 2 else 1.25


TINY_CONFIG = ScenarioConfig(
    npod=2,
    n0=2,
    n1=2,
    n2=2,
    hosts_per_tor=1,
    connections_per_host=5,
    packets_per_flow=20,
    epochs=1,
    seed=0,
)


class TestNanAwareAggregation:
    def test_nan_mean_skips_nan_trials(self):
        assert _nan_mean([1.0, float("nan"), 3.0]) == pytest.approx(2.0)

    def test_nan_mean_of_all_nan_is_nan(self):
        assert math.isnan(_nan_mean([float("nan"), float("nan")]))

    def test_sweep_average_ignores_nan_trials(self):
        # trial seeds fork as base + 1009*trial: with base 0, trial 1's seed
        # is odd, so the metric is nan there — the average must still be the
        # finite trial's value, not nan.
        runner = SweepRunner(workers=1)
        result = runner.run_sweep(
            [({}, TINY_CONFIG)], {"m": _metric_nan_for_odd_seed}, trials=2, base_seed=0
        )
        assert result.points[0].metrics["m"] == pytest.approx(1.25)

    def test_all_nan_trials_stay_nan(self):
        runner = SweepRunner(workers=1)
        result = runner.run_sweep(
            [({}, TINY_CONFIG)], {"m": _metric_nan_for_odd_seed}, trials=1, base_seed=1
        )
        assert math.isnan(result.points[0].metrics["m"])


def make_outcome(**metrics) -> ScenarioOutcome:
    base = {
        "mean_epoch_precision_007": 1.0,
        "mean_epoch_recall_007": 1.0,
        "time_to_detection_007": 0.0,
        "false_alarm_rate_007": 0.0,
        "detected_fraction_007": 1.0,
    }
    base.update(metrics)
    return ScenarioOutcome(
        name="x",
        trials=1,
        metrics=base,
        per_epoch_precision=[1.0, 1.0],
        per_epoch_recall=[1.0, 0.5],
    )


class TestGoldenComparison:
    def golden(self, outcome: ScenarioOutcome) -> dict:
        return outcome_document(outcome)

    def test_identical_outcome_passes(self):
        outcome = make_outcome()
        assert compare_to_golden(self.golden(outcome), outcome) == []

    def test_within_tolerance_passes(self):
        golden = self.golden(make_outcome())
        near = make_outcome(mean_epoch_recall_007=1.0 - 1e-3)
        assert compare_to_golden(golden, near) == []

    def test_beyond_tolerance_fails(self):
        golden = self.golden(make_outcome())
        off = make_outcome(mean_epoch_recall_007=0.5)
        violations = compare_to_golden(golden, off)
        assert any("mean_epoch_recall_007" in v for v in violations)

    def test_golden_null_matches_actual_nan(self):
        outcome = make_outcome(time_to_detection_007=float("nan"))
        golden = self.golden(outcome)
        assert golden["metrics"]["time_to_detection_007"]["value"] is None
        assert compare_to_golden(golden, outcome) == []

    def test_actual_nan_against_numeric_golden_fails(self):
        golden = self.golden(make_outcome(time_to_detection_007=1.0))
        broken = make_outcome(time_to_detection_007=float("nan"))
        violations = compare_to_golden(golden, broken)
        assert any("time_to_detection_007" in v for v in violations)

    def test_numeric_actual_against_null_golden_fails(self):
        golden = self.golden(make_outcome(time_to_detection_007=float("nan")))
        regressed = make_outcome(time_to_detection_007=2.0)
        violations = compare_to_golden(golden, regressed)
        assert any("time_to_detection_007" in v for v in violations)

    def test_per_epoch_length_mismatch_fails(self):
        golden = self.golden(make_outcome())
        short = make_outcome()
        object.__setattr__(short, "per_epoch_precision", [1.0])
        violations = compare_to_golden(golden, short)
        assert any("per_epoch.precision" in v for v in violations)

    def test_per_epoch_value_drift_fails(self):
        golden = self.golden(make_outcome())
        drifted = make_outcome()
        object.__setattr__(drifted, "per_epoch_recall", [1.0, 0.4])
        violations = compare_to_golden(golden, drifted)
        assert any("per_epoch.recall[1]" in v for v in violations)


# ----------------------------------------------------------------------
# running: determinism across worker counts, CLI
# ----------------------------------------------------------------------
class TestRunPack:
    def test_results_identical_at_any_worker_count(self, pack):
        scenario = pack["intermittent_connectivity"]
        serial = run_pack([scenario], runner=SweepRunner(workers=1))
        parallel = run_pack([scenario], runner=SweepRunner(workers=2))
        assert serial == parallel

    def test_outcome_matches_committed_golden(self, pack):
        scenario = pack["intermittent_connectivity"]
        outcome = run_pack([scenario])[scenario.name]
        assert compare_to_golden(scenario.expected, outcome) == []


class TestPackCli:
    def test_list_names_every_scenario(self):
        out = io.StringIO()
        assert main(["pack", "list", "--dir", str(PACK_DIR)], out=out) == 0
        text = out.getvalue()
        for name in EXPECTED_NAMES:
            assert name in text
        assert "NO GOLDEN" not in text

    def test_validate_passes_on_the_shipped_pack(self):
        out = io.StringIO()
        assert main(["pack", "validate", "--dir", str(PACK_DIR)], out=out) == 0

    def test_validate_names_every_typo_of_a_copied_scenario(self, tmp_path):
        """Three faults the per-class codecs let through: two unknown keys on
        script events and a string where a bool belongs (``"false"`` is
        truthy, so the SLB silently stayed on)."""
        shutil.copytree(PACK_DIR / "incast_burst", tmp_path / "incast_burst")
        path = tmp_path / "incast_burst" / "scenario.json"
        document = json.loads(path.read_text())
        shift, burst = document["config"]["script"]["events"]
        burst["levl"] = 2
        shift["hot_tor_skw"] = 0.9
        document["config"]["use_slb"] = "false"
        path.write_text(json.dumps(document))
        out = io.StringIO()
        assert main(["pack", "validate", "--dir", str(tmp_path)], out=out) == 1
        text = out.getvalue()
        for fault in ("script.events[1].levl", "script.events[0].hot_tor_skw", "use_slb"):
            assert fault in text

    @pytest.mark.parametrize(
        "edit, keys",
        [
            (lambda config: config.pop("seed"), "['seed']"),
            (lambda config: config["script"]["events"][0].pop("drop_rate"), "['script']"),
            # a drain's ends are written sorted
            (
                lambda config: config["script"]["events"][1].update(link=["t2-0", "pod0-t1-0"]),
                "['script']",
            ),
        ],
        ids=["missing-key", "missing-event-key", "unsorted-link"],
    )
    def test_validate_refuses_a_config_that_does_not_re_dump_to_itself(
        self, tmp_path, edit, keys
    ):
        config = ScenarioConfig(
            epochs=4,
            script=ScenarioScript().flap(start=1, duration=1).drain(start=2, duration=1),
        ).to_dict()
        edit(config)
        document = dict(minimal_document("odd"), config=config)
        directory = write_pack_scenario(tmp_path / "odd", document)
        with pytest.raises(PackValidationError, match=re.escape(f"config keys {keys}")):
            load_scenario(directory)

    def test_validate_fails_when_a_golden_is_missing(self, tmp_path):
        write_pack_scenario(tmp_path / "lonely", minimal_document("lonely"))
        out = io.StringIO()
        assert main(["pack", "validate", "--dir", str(tmp_path)], out=out) == 1
        assert "missing goldens: lonely" in out.getvalue()

    def test_run_unknown_scenario_exits_2(self):
        out = io.StringIO()
        code = main(["pack", "run", "nope", "--dir", str(PACK_DIR)], out=out)
        assert code == 2
        assert "unknown scenario" in out.getvalue()

    def test_run_requires_names_or_all(self):
        out = io.StringIO()
        assert main(["pack", "run", "--dir", str(PACK_DIR)], out=out) == 2

    def test_run_passes_and_writes_report(self, tmp_path):
        out = io.StringIO()
        report_dir = tmp_path / "reports"
        code = main(
            [
                "pack",
                "run",
                "intermittent_connectivity",
                "--dir",
                str(PACK_DIR),
                "--report-dir",
                str(report_dir),
            ],
            out=out,
        )
        assert code == 0
        assert "intermittent_connectivity: ok" in out.getvalue()
        with open(report_dir / "intermittent_connectivity.report.json") as handle:
            report = json.load(handle)
        assert report["violations"] == []
        assert report["actual"]["name"] == "intermittent_connectivity"

    def test_run_fails_against_a_tampered_golden(self, tmp_path):
        source = PACK_DIR / "intermittent_connectivity"
        target = tmp_path / "intermittent_connectivity"
        shutil.copytree(source, target)
        with open(target / "expected.json") as handle:
            golden = json.load(handle)
        golden["metrics"]["mean_epoch_recall_007"]["value"] = 0.123
        with open(target / "expected.json", "w") as handle:
            json.dump(golden, handle)
        out = io.StringIO()
        code = main(
            ["pack", "run", "intermittent_connectivity", "--dir", str(tmp_path)],
            out=out,
        )
        assert code == 1
        assert "FAIL" in out.getvalue()
        assert "mean_epoch_recall_007" in out.getvalue()

    def test_update_goldens_writes_a_passing_golden(self, tmp_path):
        source = PACK_DIR / "intermittent_connectivity"
        target = tmp_path / "intermittent_connectivity"
        shutil.copytree(source, target)
        (target / "expected.json").unlink()
        out = io.StringIO()
        code = main(
            [
                "pack",
                "run",
                "intermittent_connectivity",
                "--dir",
                str(tmp_path),
                "--update-goldens",
            ],
            out=out,
        )
        assert code == 0
        rerun = io.StringIO()
        code = main(
            ["pack", "run", "intermittent_connectivity", "--dir", str(tmp_path)],
            out=rerun,
        )
        assert code == 0
        assert "intermittent_connectivity: ok" in rerun.getvalue()

    def test_update_goldens_preserves_existing_tolerances(self, pack, tmp_path):
        source = PACK_DIR / "intermittent_connectivity"
        target = tmp_path / "intermittent_connectivity"
        shutil.copytree(source, target)
        with open(target / "expected.json") as handle:
            golden = json.load(handle)
        golden["metrics"]["mean_epoch_recall_007"]["tolerance"] = 0.123
        with open(target / "expected.json", "w") as handle:
            json.dump(golden, handle)
        scenario = load_scenario(target)
        outcome = run_pack([scenario])[scenario.name]
        document = write_golden(scenario, outcome)
        assert document["metrics"]["mean_epoch_recall_007"]["tolerance"] == 0.123
