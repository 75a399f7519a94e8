"""Metric sets and the Theorem 2 label shared by the figure matrix.

The metric functions are deliberately module-level ``def``s (not lambdas):
:class:`~repro.experiments.runner.SweepRunner` pickles them into worker
processes when experiments run with ``workers > 1``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.experiments.scenario import ScenarioConfig, ScenarioResult
from repro.metrics.evaluation import top_k_recall
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


def metric_topk_recall_007(result: ScenarioResult) -> float:
    """Recall if the top-k voted links were selected instead of thresholding."""
    ranked = [link for link, _ in result.reports[0].ranked_links]
    return top_k_recall(ranked, result.failure_scenario.bad_links)


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
