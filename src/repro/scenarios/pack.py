"""Loader, validator, runner and golden comparator for scenario packs.

On-disk layout (one directory per scenario)::

    scenarios/
      gray_failure_silent_drops/
        scenario.json     # versioned envelope around ScenarioConfig.to_dict()
        expected.json     # golden time-aware metrics with stated tolerances

``scenario.json`` schema (``pack_version`` 1; unknown keys are rejected)::

    {
      "pack_version": 1,
      "name": "gray_failure_silent_drops",   # must match the directory name
      "title": "...",                        # optional one-liner
      "description": "...",                  # optional prose
      "tags": ["gray", "silent-drops"],      # optional labels
      "trials": 3,                           # optional, default 1
      "config": { ... }                      # ScenarioConfig.to_dict()
    }

``expected.json`` schema (same versioning rules)::

    {
      "pack_version": 1,
      "name": "gray_failure_silent_drops",
      "metrics": {
        "mean_epoch_recall_007": {"value": 0.95, "tolerance": 0.02},
        "time_to_detection_007": {"value": null, "tolerance": 0.25},
        ...
      },
      "per_epoch": {
        "precision": [...], "recall": [...],  # trial-0 timelines
        "tolerance": 0.005
      }
    }

``"value": null`` means *expected nan* — e.g. ``false_alarm_rate_007`` on a
scenario whose failure never clears.  A golden ``null`` only matches an
actual ``nan`` and vice versa; ``nan`` never silently passes a numeric bar.

Every run is a pure function of ``scenario.json``: scalars are nan-aware
means over ``trials`` forked-seed runs, per-epoch timelines come from trial
0 (whose seed is the config's own), and the fan-out goes through
:meth:`repro.experiments.runner.SweepRunner.map`, which preserves task
order — so ``pack run --all`` produces identical documents at any worker
count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import SweepRunner, fork_trial_seed
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.sweeps import dynamic_metrics

#: the one scenario/expected schema version this loader understands.
PACK_VERSION = 1

_SCENARIO_REQUIRED = {"pack_version", "name", "config"}
_SCENARIO_KEYS = _SCENARIO_REQUIRED | {"title", "description", "tags", "trials"}
_EXPECTED_REQUIRED = {"pack_version", "name", "metrics"}
_EXPECTED_KEYS = _EXPECTED_REQUIRED | {"per_epoch"}
_PER_EPOCH_KEYS = {"precision", "recall", "tolerance"}

#: default golden tolerances written by ``write_golden`` / ``--update-goldens``.
#: Runs are deterministic, so these only absorb float noise across platforms
#: and tiny refactors — while still being *stated* bounds a reviewer can read.
DEFAULT_METRIC_TOLERANCES = {
    "time_to_detection_007": 0.25,
}
DEFAULT_METRIC_TOLERANCE = 0.02
DEFAULT_PER_EPOCH_TOLERANCE = 0.005


class PackValidationError(ValueError):
    """A scenario/expected file violated the pack schema."""


@dataclass(frozen=True)
class PackScenario:
    """One validated scenario directory: envelope + config + optional golden."""

    name: str
    config: ScenarioConfig
    path: Path
    title: str = ""
    description: str = ""
    tags: Tuple[str, ...] = ()
    trials: int = 1
    expected: Optional[Dict] = field(default=None, compare=False)

    @property
    def expected_path(self) -> Path:
        """Where this scenario's golden document lives."""
        return self.path / "expected.json"


@dataclass(frozen=True)
class ScenarioOutcome:
    """The measured document of one scenario run (pre-tolerance)."""

    name: str
    trials: int
    #: nan-aware mean of each dynamic metric over the trials.
    metrics: Dict[str, float]
    #: trial-0 per-epoch precision/recall timelines.
    per_epoch_precision: List[float]
    per_epoch_recall: List[float]


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def _require_version(data: Dict, where: str) -> None:
    version = data.get("pack_version")
    if version != PACK_VERSION:
        raise PackValidationError(
            f"{where}: unsupported pack_version {version!r} "
            f"(this loader understands {PACK_VERSION})"
        )


def _reject_unknown(data: Dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise PackValidationError(f"{where}: unknown keys {sorted(unknown)}")


def _require_keys(data: Dict, required: set, where: str) -> None:
    missing = required - set(data)
    if missing:
        raise PackValidationError(f"{where}: missing keys {sorted(missing)}")


def validate_scenario_data(data: Dict, name: str, where: str = "scenario.json") -> Dict:
    """Validate a ``scenario.json`` document; returns the parsed envelope.

    The returned dict has the envelope fields plus ``config`` replaced by
    the parsed :class:`ScenarioConfig`.  Raises :class:`PackValidationError`
    on any schema violation: unknown/missing keys, an unsupported version, a
    name not matching the directory, a non-positive trial count, a config
    :meth:`ScenarioConfig.from_dict` rejects or one that does not re-dump to
    itself (a missing key or a non-canonical value), or a scripted timeline
    longer than the simulated epochs (a silently-truncated tail is the
    off-by-one class of bug the pack exists to catch).
    """
    if not isinstance(data, dict):
        raise PackValidationError(f"{where}: expected a JSON object")
    _require_version(data, where)
    _reject_unknown(data, _SCENARIO_KEYS, where)
    _require_keys(data, _SCENARIO_REQUIRED, where)
    if data["name"] != name:
        raise PackValidationError(
            f"{where}: name {data['name']!r} does not match directory {name!r}"
        )
    trials = data.get("trials", 1)
    if not isinstance(trials, int) or trials < 1:
        raise PackValidationError(f"{where}: trials must be an int >= 1")
    tags = data.get("tags", [])
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        raise PackValidationError(f"{where}: tags must be a list of strings")
    try:
        config = ScenarioConfig.from_dict(data["config"])
    except ValueError as exc:
        raise PackValidationError(f"{where}: invalid config: {exc}") from exc
    dumped = config.to_dict()
    if dumped != data["config"]:
        keys = sorted(k for k, v in dumped.items() if data["config"].get(k) != v)
        raise PackValidationError(
            f"{where}: config keys {keys} are missing or do not re-dump to "
            f"themselves; write the config as `repro-007 scenario --config "
            f"... --dump-config -` prints it"
        )
    if config.script is not None and config.epochs < config.script.horizon:
        raise PackValidationError(
            f"{where}: epochs={config.epochs} < script horizon="
            f"{config.script.horizon}; the timeline's tail would never be "
            f"simulated"
        )
    return {
        "name": data["name"],
        "title": data.get("title", ""),
        "description": data.get("description", ""),
        "tags": tuple(tags),
        "trials": trials,
        "config": config,
    }


def validate_expected_data(data: Dict, name: str, where: str = "expected.json") -> Dict:
    """Validate a golden ``expected.json`` document; returns it unchanged."""
    if not isinstance(data, dict):
        raise PackValidationError(f"{where}: expected a JSON object")
    _require_version(data, where)
    _reject_unknown(data, _EXPECTED_KEYS, where)
    _require_keys(data, _EXPECTED_REQUIRED, where)
    if data["name"] != name:
        raise PackValidationError(
            f"{where}: name {data['name']!r} does not match directory {name!r}"
        )
    known_metrics = set(dynamic_metrics())
    metrics = data["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise PackValidationError(f"{where}: metrics must be a non-empty object")
    for metric_name, entry in metrics.items():
        if metric_name not in known_metrics:
            raise PackValidationError(
                f"{where}: unknown metric {metric_name!r} "
                f"(known: {sorted(known_metrics)})"
            )
        if not isinstance(entry, dict):
            raise PackValidationError(f"{where}: metric {metric_name!r} must be an object")
        _reject_unknown(entry, {"value", "tolerance"}, f"{where}:{metric_name}")
        _require_keys(entry, {"value", "tolerance"}, f"{where}:{metric_name}")
        if entry["value"] is not None and not isinstance(entry["value"], (int, float)):
            raise PackValidationError(
                f"{where}: metric {metric_name!r} value must be a number or null"
            )
        if not isinstance(entry["tolerance"], (int, float)) or entry["tolerance"] < 0:
            raise PackValidationError(
                f"{where}: metric {metric_name!r} tolerance must be a number >= 0"
            )
    per_epoch = data.get("per_epoch")
    if per_epoch is not None:
        _reject_unknown(per_epoch, _PER_EPOCH_KEYS, f"{where}:per_epoch")
        _require_keys(per_epoch, _PER_EPOCH_KEYS, f"{where}:per_epoch")
        for key in ("precision", "recall"):
            series = per_epoch[key]
            if not (
                isinstance(series, list)
                and all(isinstance(v, (int, float)) for v in series)
            ):
                raise PackValidationError(
                    f"{where}: per_epoch.{key} must be a list of numbers"
                )
    return data


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def default_pack_dir() -> Path:
    """The pack directory: ``$REPRO_SCENARIO_PACK``, else ``./scenarios``,
    else the repository's ``scenarios/`` next to this checkout."""
    env = os.environ.get("REPRO_SCENARIO_PACK")
    if env:
        return Path(env)
    cwd_pack = Path.cwd() / "scenarios"
    if cwd_pack.is_dir():
        return cwd_pack
    return Path(__file__).resolve().parents[3] / "scenarios"


def load_scenario(directory: Union[str, Path]) -> PackScenario:
    """Load and validate one scenario directory (golden included if present)."""
    directory = Path(directory)
    scenario_path = directory / "scenario.json"
    if not scenario_path.is_file():
        raise PackValidationError(f"{directory}: no scenario.json")
    with open(scenario_path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PackValidationError(f"{scenario_path}: invalid JSON: {exc}") from exc
    parsed = validate_scenario_data(raw, directory.name, where=str(scenario_path))
    expected = None
    expected_path = directory / "expected.json"
    if expected_path.is_file():
        with open(expected_path) as handle:
            try:
                raw_expected = json.load(handle)
            except json.JSONDecodeError as exc:
                raise PackValidationError(
                    f"{expected_path}: invalid JSON: {exc}"
                ) from exc
        expected = validate_expected_data(
            raw_expected, directory.name, where=str(expected_path)
        )
    return PackScenario(path=directory, expected=expected, **parsed)


def load_pack(pack_dir: Union[str, Path, None] = None) -> Dict[str, PackScenario]:
    """Load every scenario in the pack, keyed and ordered by name.

    The registry: names are the directory names, sorted — the iteration
    order of the returned dict is the canonical pack order used by
    ``pack run --all`` and the CI matrix.
    """
    pack_dir = Path(pack_dir) if pack_dir is not None else default_pack_dir()
    if not pack_dir.is_dir():
        raise PackValidationError(f"pack directory {pack_dir} does not exist")
    scenarios: Dict[str, PackScenario] = {}
    for child in sorted(pack_dir.iterdir()):
        if child.is_dir() and (child / "scenario.json").is_file():
            scenarios[child.name] = load_scenario(child)
    if not scenarios:
        raise PackValidationError(f"pack directory {pack_dir} holds no scenarios")
    return scenarios


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PackTrialTask:
    """One (scenario, trial) unit — module-level and frozen, so picklable."""

    name: str
    trial: int
    config: ScenarioConfig


def _run_pack_trial(task: _PackTrialTask) -> Dict:
    """Worker entry point: run one trial, return its measured document."""
    result = run_scenario(task.config)
    scores = result.per_epoch_detection_007()
    return {
        "metrics": {
            metric: float(fn(result)) for metric, fn in dynamic_metrics().items()
        },
        "precision": [float(s.precision) for s in scores],
        "recall": [float(s.recall) for s in scores],
    }


def _nan_mean(values: Sequence[float]) -> float:
    """Mean over the non-nan values; ``nan`` when every value is nan.

    A trial with nothing to measure (e.g. ``time_to_detection_007`` when no
    episode was detected) must not poison the trials that did measure.
    """
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return float("nan")
    return float(sum(finite)) / len(finite)


def run_pack(
    scenarios: Sequence[PackScenario],
    runner: Optional[SweepRunner] = None,
) -> Dict[str, ScenarioOutcome]:
    """Run scenarios (all trials fanned out together) and aggregate outcomes.

    Every ``(scenario, trial)`` pair becomes one task; the whole batch goes
    through a single :meth:`SweepRunner.map`, so the pool is saturated even
    when individual scenarios have a single trial, and results are
    reassembled in task order — identical at any worker count.
    """
    active = runner if runner is not None else SweepRunner(workers=1)
    tasks: List[_PackTrialTask] = []
    for scenario in scenarios:
        base = scenario.config.seed
        for trial in range(scenario.trials):
            tasks.append(
                _PackTrialTask(
                    name=scenario.name,
                    trial=trial,
                    config=replace(
                        scenario.config,
                        seed=fork_trial_seed(base, trial),
                        blame=replace(scenario.config.blame),
                    ),
                )
            )
    results = active.map(_run_pack_trial, tasks)

    outcomes: Dict[str, ScenarioOutcome] = {}
    for scenario in scenarios:
        trial_docs = [
            doc
            for task, doc in zip(tasks, results)
            if task.name == scenario.name
        ]
        metrics = {
            metric: _nan_mean([doc["metrics"][metric] for doc in trial_docs])
            for metric in dynamic_metrics()
        }
        outcomes[scenario.name] = ScenarioOutcome(
            name=scenario.name,
            trials=scenario.trials,
            metrics=metrics,
            per_epoch_precision=trial_docs[0]["precision"],
            per_epoch_recall=trial_docs[0]["recall"],
        )
    return outcomes


# ----------------------------------------------------------------------
# golden comparison
# ----------------------------------------------------------------------
def outcome_document(
    outcome: ScenarioOutcome,
    metric_tolerances: Optional[Dict[str, float]] = None,
    per_epoch_tolerance: float = DEFAULT_PER_EPOCH_TOLERANCE,
) -> Dict:
    """Render an outcome as an ``expected.json``-shaped document (nan → null)."""
    tolerances = dict(DEFAULT_METRIC_TOLERANCES)
    if metric_tolerances:
        tolerances.update(metric_tolerances)
    metrics = {}
    for metric, value in sorted(outcome.metrics.items()):
        metrics[metric] = {
            "value": None if math.isnan(value) else value,
            "tolerance": tolerances.get(metric, DEFAULT_METRIC_TOLERANCE),
        }
    return {
        "pack_version": PACK_VERSION,
        "name": outcome.name,
        "metrics": metrics,
        "per_epoch": {
            "precision": outcome.per_epoch_precision,
            "recall": outcome.per_epoch_recall,
            "tolerance": per_epoch_tolerance,
        },
    }


def _mismatch(expected: Optional[float], actual: float, tolerance: float) -> bool:
    """True when ``actual`` violates the golden value within ``tolerance``.

    nan-aware: a golden ``null`` (None) matches exactly an actual ``nan``;
    an actual ``nan`` against a numeric golden is always a violation —
    a metric silently degrading to "no data" must fail the comparison.
    """
    actual_nan = math.isnan(actual)
    if expected is None:
        return not actual_nan
    if actual_nan:
        return True
    return abs(actual - float(expected)) > tolerance


def compare_to_golden(expected: Dict, outcome: ScenarioOutcome) -> List[str]:
    """Check an outcome against a golden document; returns violation strings.

    Empty list = pass.  Only the metrics present in the golden are enforced
    (a golden may pin a subset), but per-epoch timelines — when the golden
    carries them — must match in length and value-for-value within the
    stated tolerance.
    """
    violations: List[str] = []
    for metric, entry in expected["metrics"].items():
        actual = outcome.metrics.get(metric, float("nan"))
        if _mismatch(entry["value"], actual, entry["tolerance"]):
            violations.append(
                f"{metric}: actual {actual!r} vs golden {entry['value']!r} "
                f"(tolerance {entry['tolerance']})"
            )
    per_epoch = expected.get("per_epoch")
    if per_epoch is not None:
        tolerance = per_epoch["tolerance"]
        for key, actual_series in (
            ("precision", outcome.per_epoch_precision),
            ("recall", outcome.per_epoch_recall),
        ):
            golden_series = per_epoch[key]
            if len(golden_series) != len(actual_series):
                violations.append(
                    f"per_epoch.{key}: {len(actual_series)} epochs vs golden "
                    f"{len(golden_series)}"
                )
                continue
            for epoch, (want, got) in enumerate(zip(golden_series, actual_series)):
                if _mismatch(want, got, tolerance):
                    violations.append(
                        f"per_epoch.{key}[{epoch}]: actual {got!r} vs golden "
                        f"{want!r} (tolerance {tolerance})"
                    )
    return violations


def write_golden(
    scenario: PackScenario,
    outcome: ScenarioOutcome,
    metric_tolerances: Optional[Dict[str, float]] = None,
    per_epoch_tolerance: float = DEFAULT_PER_EPOCH_TOLERANCE,
) -> Dict:
    """Write (and return) the scenario's ``expected.json`` from an outcome.

    Existing golden tolerances are preserved metric-for-metric, so
    regenerating values after an intended behaviour change does not silently
    reset hand-tuned bounds.
    """
    tolerances = dict(metric_tolerances or {})
    existing = scenario.expected
    if existing is not None:
        for metric, entry in existing["metrics"].items():
            tolerances.setdefault(metric, entry["tolerance"])
        if existing.get("per_epoch") is not None:
            per_epoch_tolerance = existing["per_epoch"]["tolerance"]
    document = outcome_document(
        outcome,
        metric_tolerances=tolerances,
        per_epoch_tolerance=per_epoch_tolerance,
    )
    with open(scenario.expected_path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
