"""Sweep helpers shared by the per-figure experiment modules.

The metric functions are deliberately module-level ``def``s (not lambdas):
:class:`~repro.experiments.runner.SweepRunner` pickles them into worker
processes when experiments run with ``workers > 1``.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import ScenarioConfig, ScenarioResult
from repro.theory.theorem2 import max_detectable_bad_links

MetricFn = Callable[[ScenarioResult], float]


def theorem2_bound_label(config: ScenarioConfig, failed_link_counts: Sequence[int]) -> str:
    """Theorem 2's bound on k for ``config``'s fabric, and the swept k past it."""
    bound = max_detectable_bad_links(config.topology_params())
    outside = [str(k) for k in failed_link_counts if k >= bound]
    label = f"Theorem 2 bound k < {bound:.1f}"
    if not outside:
        return f"{label}; every k inside it"
    return f"{label}; k = {', '.join(outside)} outside it"


# ----------------------------------------------------------------------
# picklable metric functions
# ----------------------------------------------------------------------
def metric_accuracy_007(result: ScenarioResult) -> float:
    """Per-connection accuracy of 007."""
    return result.accuracy_007()


def metric_precision_007(result: ScenarioResult) -> float:
    """Algorithm 1 detection precision."""
    return result.detection_007().precision


def metric_recall_007(result: ScenarioResult) -> float:
    """Algorithm 1 detection recall."""
    return result.detection_007().recall


def metric_accuracy_integer(result: ScenarioResult) -> float:
    """Per-connection accuracy of the integer program baseline."""
    return result.accuracy_integer_program(exact=False)


def metric_precision_integer(result: ScenarioResult) -> float:
    """Detection precision of the integer program baseline."""
    return result.integer_program_detection(exact=False).precision


def metric_recall_integer(result: ScenarioResult) -> float:
    """Detection recall of the integer program baseline."""
    return result.integer_program_detection(exact=False).recall


def metric_precision_binary(result: ScenarioResult) -> float:
    """Detection precision of the binary program baseline."""
    return result.binary_program_detection(exact=False).precision


def metric_recall_binary(result: ScenarioResult) -> float:
    """Detection recall of the binary program baseline."""
    return result.binary_program_detection(exact=False).recall


# ----------------------------------------------------------------------
# time-aware metrics (dynamic scenarios with per-epoch ground truth)
# ----------------------------------------------------------------------
def metric_mean_epoch_precision_007(result: ScenarioResult) -> float:
    """Mean per-epoch detection precision across the whole timeline."""
    scores = result.per_epoch_detection_007()
    return float(np.mean([s.precision for s in scores])) if scores else float("nan")


def metric_mean_epoch_recall_007(result: ScenarioResult) -> float:
    """Mean per-epoch detection recall across the whole timeline."""
    scores = result.per_epoch_detection_007()
    return float(np.mean([s.recall for s in scores])) if scores else float("nan")


def metric_time_to_detection_007(result: ScenarioResult) -> float:
    """Mean epochs from failure onset to first in-window detection."""
    return result.mean_time_to_detection_007()


def metric_false_alarm_rate_007(result: ScenarioResult) -> float:
    """Rate of stale detections after failures cleared."""
    return result.false_alarm_rate_007()


def metric_detected_fraction_007(result: ScenarioResult) -> float:
    """Fraction of ever-bad links detected during at least one of their bad epochs."""
    latencies = result.time_to_detection_007()
    if not latencies:
        return float("nan")
    detected = sum(1 for latency in latencies.values() if latency is not None)
    return detected / len(latencies)


# ----------------------------------------------------------------------
# aggregate metrics (the MultiEpochAggregator / ReportSink view)
# ----------------------------------------------------------------------
def metric_mean_detections_per_epoch(result: ScenarioResult) -> float:
    """Mean links flagged per epoch (Section 8.3's operator-facing number)."""
    return result.aggregate().detections_per_epoch()[0]


def metric_false_alarm_fraction(result: ScenarioResult) -> float:
    """Share of detection events naming a link not bad that epoch (truth-aware)."""
    return result.aggregate().false_alarm_fraction()


def aggregate_metrics() -> Dict[str, MetricFn]:
    """Fleet-health metrics computed through the multi-epoch aggregator.

    Module-level (picklable) like every other metric set, so sweeps over the
    aggregator view parallelize across workers too.
    """
    return {
        "detections_per_epoch": metric_mean_detections_per_epoch,
        "false_alarm_fraction": metric_false_alarm_fraction,
    }


# ----------------------------------------------------------------------
def average_over_trials(
    config: ScenarioConfig,
    metric_fns: Mapping[str, MetricFn],
    trials: int = 3,
    base_seed: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, float]:
    """Run ``config`` ``trials`` times (different seeds) and average each metric.

    ``nan`` values (e.g. accuracy when no flow crossed a failed link in a
    trial) are ignored in the average; a metric that is ``nan`` in every trial
    stays ``nan``.  Pass a :class:`SweepRunner` to fan the trials out over a
    worker pool; the default serial runner produces identical results.
    """
    active = runner if runner is not None else SweepRunner(workers=1)
    return active.run_trials(config, metric_fns, trials=trials, base_seed=base_seed)


def standard_metrics(include_baselines: bool = True) -> Dict[str, MetricFn]:
    """The metric set most figures report: accuracy + detection for 007 and baselines."""
    metrics: Dict[str, MetricFn] = {
        "accuracy_007": metric_accuracy_007,
        "precision_007": metric_precision_007,
        "recall_007": metric_recall_007,
    }
    if include_baselines:
        metrics.update(
            {
                "accuracy_integer": metric_accuracy_integer,
                "precision_integer": metric_precision_integer,
                "recall_integer": metric_recall_integer,
                "precision_binary": metric_precision_binary,
                "recall_binary": metric_recall_binary,
            }
        )
    return metrics


def dynamic_metrics() -> Dict[str, MetricFn]:
    """The time-aware metric set for dynamic (scripted) scenarios."""
    return {
        "mean_epoch_precision_007": metric_mean_epoch_precision_007,
        "mean_epoch_recall_007": metric_mean_epoch_recall_007,
        "time_to_detection_007": metric_time_to_detection_007,
        "false_alarm_rate_007": metric_false_alarm_rate_007,
        "detected_fraction_007": metric_detected_fraction_007,
    }


def accuracy_metrics(include_baselines: bool = True) -> Dict[str, MetricFn]:
    """Just the per-connection accuracy metrics (Figures 3, 5-9)."""
    metrics: Dict[str, MetricFn] = {"accuracy_007": metric_accuracy_007}
    if include_baselines:
        metrics["accuracy_integer"] = metric_accuracy_integer
    return metrics


def detection_metrics(include_baselines: bool = True) -> Dict[str, MetricFn]:
    """Just the Algorithm 1 precision/recall metrics (Figures 4, 10-12)."""
    metrics: Dict[str, MetricFn] = {
        "precision_007": metric_precision_007,
        "recall_007": metric_recall_007,
    }
    if include_baselines:
        metrics.update(
            {
                "precision_integer": metric_precision_integer,
                "recall_integer": metric_recall_integer,
                "precision_binary": metric_precision_binary,
                "recall_binary": metric_recall_binary,
            }
        )
    return metrics
