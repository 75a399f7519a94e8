"""The figure matrix: the paper's sweep experiments as rows of one table.

Section 6's evaluation (Figures 3-12, Sections 6.6-6.7) and the design
ablations are parameter sweeps over one simulator: a base scenario, one or
two axes, a metric set and a trial count.  Each is a :class:`Figure` row of
:data:`FIGURES`; :func:`run_figure` expands every panel's axes with
``itertools.product`` and runs the points through
:meth:`~repro.experiments.runner.SweepRunner.run_sweep`.  :data:`AXES` is the
only code that knows how a parameter column maps onto
:class:`~repro.experiments.scenario.ScenarioConfig` fields.

The experiments a sweep cannot express (Figure 1, Table 1, Figure 13 and
Sections 7.2, 8.2 and 8.3) keep their own modules; :data:`MEASURED` names
their entry points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.experiments.fig01_motivation import run_fig01
from repro.experiments.fig13_testcluster_votes import run_fig13
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sec72_two_links import run_sec72
from repro.experiments.sec82_everflow_validation import run_sec82
from repro.experiments.sec83_vm_reboots import run_sec83
from repro.experiments.sweeps import (
    MetricFn,
    accuracy_metrics,
    detection_metrics,
    dynamic_metrics,
    metric_topk_recall_007,
    theorem2_bound_label,
)
from repro.experiments.table1_icmp import run_table1
from repro.netsim.script import ScenarioScript
from repro.topology.elements import LinkLevel

#: a parameter column's translation: the config with one column value applied.
Axis = Callable[[ScenarioConfig, Any], ScenarioConfig]

#: Figure 11's failure locations: label -> (link level, downward?).
LOCATIONS: Dict[str, Tuple[LinkLevel, bool]] = {
    "ToR-T1": (LinkLevel.LEVEL1, False),
    "T1-T2": (LinkLevel.LEVEL2, False),
    "T2-T1": (LinkLevel.LEVEL2, True),
    "T1-ToR": (LinkLevel.LEVEL1, True),
}


def _flap(config: ScenarioConfig, **changes: Any) -> ScenarioConfig:
    """``config`` with its one scripted link flap changed."""
    (flap,) = config.script.events
    return replace(config, script=ScenarioScript([replace(flap, **changes)]))


AXES: Dict[str, Axis] = {
    "num_failed_links": lambda c, k: replace(c, num_bad_links=k),
    "drop_rate": lambda c, r: replace(c, drop_rate_range=(r, r)),
    "noise_drop_rate": lambda c, n: replace(c, noise_range=(0.0, n)),
    "skew": lambda c, s: replace(c, hot_tor_skew=s),
    "location": lambda c, name: replace(
        c, failure_level=LOCATIONS[name][0], failure_downward=LOCATIONS[name][1]
    ),
    # A single-pod Clos carries no cross-pod traffic, so level-2 links see no
    # flows; keep the injected failure on a level the traffic exercises.
    "pods": lambda c, p: replace(
        c,
        npod=p,
        failure_levels=(LinkLevel.LEVEL1,) if p == 1 else (LinkLevel.LEVEL1, LinkLevel.LEVEL2),
    ),
    "vote_policy": lambda c, v: replace(c, vote_policy=v),
    "threshold_fraction": lambda c, t: replace(c, blame=replace(c.blame, threshold_fraction=t)),
    "adjustment": lambda c, a: replace(c, blame=replace(c.blame, adjustment=a)),
    "flap_drop_rate": lambda c, r: _flap(c, drop_rate=r),
    "flap_epochs": lambda c, d: _flap(c, duration_epochs=d),
}


@dataclass(frozen=True)
class Panel:
    """One sweep of a figure: base overrides, ordered axes and a metric set."""

    base: Mapping[str, Any]
    axes: Mapping[str, Sequence[Any]]
    metrics: Mapping[str, MetricFn]
    #: the value of the figure's label column on this panel's rows.
    name: str = ""

    def points(self) -> List[Tuple[Dict[str, Any], ScenarioConfig]]:
        """Every ``(parameters, config)`` of the axes' product, in axis order."""
        points = []
        for values in itertools.product(*self.axes.values()):
            parameters = dict(zip(self.axes, values))
            config = ScenarioConfig(**self.base)
            for column, value in parameters.items():
                config = AXES[column](config, value)
            points.append((parameters, config))
        return points


@dataclass(frozen=True)
class Figure:
    """One row of the matrix: a paper artifact regenerated as sweeps."""

    name: str
    description: str
    trials: int
    #: column naming each row's panel (``None``: panels are not labelled).
    label: Optional[str]
    #: the paper's claim this row regenerates.
    paper: str
    panels: Tuple[Panel, ...]
    #: state Theorem 2's bound on k and the swept k past it.
    theorem2: bool = False


def run_figure(
    figure: Figure, trials: Optional[int] = None, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    """Run every panel of ``figure`` and merge the rows into one result."""
    runner = runner if runner is not None else SweepRunner()
    description = figure.description
    if figure.theorem2:
        (panel,) = figure.panels
        description += "; " + theorem2_bound_label(
            ScenarioConfig(**panel.base), panel.axes["num_failed_links"]
        )
    result = ExperimentResult(name=figure.name, description=description)
    for panel in figure.panels:
        label = {figure.label: panel.name} if figure.label else {}
        swept = runner.run_sweep(
            panel.points(), panel.metrics, trials=figure.trials if trials is None else trials
        )
        for point in swept.points:
            result.add_point({**label, **point.parameters}, point.metrics)
    return result


_DROP_RATES = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)
_FAILED_LINKS = {"num_failed_links": (2, 6, 10, 14)}
_THEOREM2_REGIME = {"drop_rate_range": (5e-4, 1e-2)}
_ABLATION = {"num_bad_links": 6, "drop_rate_range": (5e-4, 1e-2)}


def _single_and_multiple(name: str, base: Mapping[str, Any]) -> Tuple[Panel, Panel]:
    """Panel (a): one failure across drop rates; (b): many mixed-rate failures."""
    return (
        Panel(base, {"drop_rate": _DROP_RATES}, accuracy_metrics(), name=f"{name}a"),
        Panel(
            {**base, "drop_rate_range": (1e-4, 1e-2)},
            _FAILED_LINKS,
            accuracy_metrics(),
            name=f"{name}b",
        ),
    )


FIGURES: Dict[str, Figure] = {
    "fig03": Figure(
        "Figure 3",
        "per-connection accuracy vs #failed links",
        trials=3,
        label=None,
        paper="Failed-link drop rates are drawn from (0.05%, 1%) so that Theorem 2's "
        "signal-to-noise condition holds; 007 averages above 96% accuracy and "
        "generally beats the integer optimization.",
        panels=(Panel(_THEOREM2_REGIME, _FAILED_LINKS, accuracy_metrics()),),
        theorem2=True,
    ),
    "fig04": Figure(
        "Figure 4",
        "Algorithm 1 precision/recall vs #failed links",
        trials=3,
        label=None,
        paper="Algorithm 1's precision/recall vs the number of failed links, compared "
        "against the integer and binary programs.",
        panels=(Panel(_THEOREM2_REGIME, _FAILED_LINKS, detection_metrics()),),
        theorem2=True,
    ),
    "fig05": Figure(
        "Figure 5",
        "accuracy vs drop rates",
        trials=3,
        label="panel",
        paper="Panel (a): a single failed link whose drop rate sweeps below and above "
        "the conservative Theorem 2 bound.  Panel (b): multiple failed links with "
        "very different drop rates (the paper's default (0.01%, 1%) range).",
        panels=_single_and_multiple("Figure 5", {}),
    ),
    "fig06": Figure(
        "Figure 6",
        "accuracy vs good-link (noise) drop rate",
        trials=3,
        label=None,
        paper="As the drop rate of good links (noise) rises with one or five genuine "
        "failures, 007 is barely affected, while the optimization's accuracy becomes "
        "erratic (large confidence intervals).",
        panels=(
            Panel(
                {"drop_rate_range": (1e-3, 1e-2)},
                {"num_failed_links": (1, 5), "noise_drop_rate": (1e-6, 1e-5, 5e-5, 1e-4)},
                accuracy_metrics(),
            ),
        ),
    ),
    "fig07": Figure(
        "Figure 7",
        "random #connections per host",
        trials=3,
        label="panel",
        paper="Hosts draw their per-epoch connection count uniformly from (10, 60); "
        "fewer connections means less evidence, which hurts the under-constrained "
        "optimization more than 007.",
        panels=_single_and_multiple("Figure 7", {"connections_per_host": (10, 60)}),
    ),
    "fig08": Figure(
        "Figure 8",
        "skewed traffic",
        trials=3,
        label="panel",
        paper="With 25% of the ToRs receiving 80% of the flows (Section 6.5), the "
        "optimization's constraints thin out on the cold part of the network and its "
        "accuracy drops, while 007 keeps finding the per-flow cause with high "
        "probability.",
        panels=_single_and_multiple(
            "Figure 8", {"traffic": "skewed", "num_hot_tors": 5, "hot_fraction": 0.8}
        ),
    ),
    "fig09": Figure(
        "Figure 9",
        "accuracy under a hot ToR sink",
        trials=2,
        label=None,
        paper="007 tolerates up to 50% of the flows sinking at one hot ToR with "
        "negligible degradation; above that accuracy suffers when many links fail "
        "at once.",
        panels=(
            Panel(
                {"traffic": "hot_tor", "drop_rate_range": (1e-3, 1e-2)},
                {"skew": (0.1, 0.3, 0.5, 0.7), "num_failed_links": (1, 5, 10, 15)},
                accuracy_metrics(include_baselines=False),
            ),
        ),
    ),
    "fig10": Figure(
        "Figure 10",
        "Algorithm 1 precision/recall vs drop rate, single failure",
        trials=3,
        label=None,
        paper="Algorithm 1's precision/recall vs the drop rate of a single failed "
        "link, compared against the integer and binary programs.",
        panels=(Panel({}, {"drop_rate": _DROP_RATES}, detection_metrics()),),
    ),
    "fig11": Figure(
        "Figure 11",
        "Algorithm 1 precision/recall by failed-link location",
        trials=2,
        label=None,
        paper="The same drop-rate sweep with the failure placed on each of the four "
        "directed fabric locations: ToR->T1, T1->T2, T2->T1 and T1->ToR.",
        panels=(
            Panel(
                {"failure_kind": "level"},
                {"location": tuple(LOCATIONS), "drop_rate": (5e-4, 1e-3, 5e-3, 1e-2)},
                detection_metrics(include_baselines=False),
            ),
        ),
    ),
    "fig12": Figure(
        "Figure 12",
        "Algorithm 1 precision/recall, heavily skewed drop rates",
        trials=2,
        label=None,
        paper="At least one failed link drops 10-100% of packets while the others drop "
        "only 0.01-0.1%: precision stays high, recall degrades as the dominant failure "
        "inflates the detection threshold (it would be near 100% if the top-k links "
        "were simply selected).",
        panels=(
            Panel(
                {"failure_kind": "skewed"},
                _FAILED_LINKS,
                {**detection_metrics(), "topk_recall_007": metric_topk_recall_007},
            ),
        ),
    ),
    "sec66": Figure(
        "Section 6.6 (transient failures)",
        "time-aware detection metrics for a scripted link flap",
        trials=2,
        label=None,
        paper="007's votes stay meaningful while the failure set changes under it: "
        "detections appear quickly while a link flaps and disappear once it clears.",
        panels=(
            Panel(
                {
                    "failure_kind": "none",
                    "epochs": 8,
                    "script": ScenarioScript().flap(start=2, duration=3, level=LinkLevel.LEVEL1),
                },
                {"flap_drop_rate": (1e-3, 5e-3, 1e-2), "flap_epochs": (3,)},
                dynamic_metrics(),
            ),
        ),
    ),
    "sec67": Figure(
        "Section 6.7",
        "accuracy and detection vs number of pods",
        trials=2,
        label=None,
        paper="Single-failure per-connection accuracy of 98/92/91/90% for 1-4 pods for "
        "007 (vs 94/72/79/77% for the optimization), Algorithm 1 recall >= 98% up to "
        "6 pods, and precision 100% at every size; accuracy is essentially unchanged "
        "with >= 30 failed links.",
        panels=(
            Panel(
                {"drop_rate_range": (1e-3, 1e-2)},
                {"pods": (1, 2, 3), "num_failed_links": (1,)},
                {**accuracy_metrics(), **detection_metrics(include_baselines=False)},
            ),
            Panel(
                {"drop_rate_range": (1e-3, 1e-2)},
                {"pods": (2,), "num_failed_links": (30,)},
                accuracy_metrics(),
            ),
        ),
    ),
    "ablations": Figure(
        "Ablations",
        "design-choice ablations",
        trials=2,
        label="study",
        paper="The paper's 1/h votes against unit votes; Algorithm 1's 1% detection "
        "threshold, picked by a sweep; and the vote re-adjustment step, credited with "
        "a ~5% false-positive reduction.",
        panels=(
            Panel(
                _ABLATION,
                {"vote_policy": ("inverse_hops", "unit")},
                {
                    **accuracy_metrics(include_baselines=False),
                    **detection_metrics(include_baselines=False),
                },
                name="Ablation: vote value",
            ),
            Panel(
                _ABLATION,
                {"threshold_fraction": (0.002, 0.005, 0.01, 0.02, 0.05)},
                detection_metrics(include_baselines=False),
                name="Ablation: detection threshold",
            ),
            Panel(
                _ABLATION,
                {"adjustment": ("paths", "none")},
                detection_metrics(include_baselines=False),
                name="Ablation: vote adjustment",
            ),
        ),
    ),
}

#: the experiments a sweep cannot express: name -> zero-argument entry point.
MEASURED: Dict[str, Callable[[], ExperimentResult]] = {
    "fig01": run_fig01,
    "table1": run_table1,
    "fig13": run_fig13,
    "sec72": run_sec72,
    "sec82": run_sec82,
    "sec83": run_sec83,
}
