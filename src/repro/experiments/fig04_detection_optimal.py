"""Figure 4: Algorithm 1 precision/recall vs number of failed links, compared
against the integer and binary programs; the description names Theorem 2's
bound on the number of failed links for the fabric and the swept counts past
it."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import SweepRunner, run_point_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweeps import detection_metrics, theorem2_bound_label

DEFAULT_FAILED_LINK_COUNTS = (2, 6, 10, 14)


def run_fig04(
    failed_link_counts: Sequence[int] = DEFAULT_FAILED_LINK_COUNTS,
    trials: int = 3,
    seed: int = 0,
    include_baselines: bool = True,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Regenerate Figure 4 (detection precision/recall vs number of failed links)."""
    base = ScenarioConfig(
        drop_rate_range=(5e-4, 1e-2),
        seed=seed,
    )
    points = [
        ({"num_failed_links": count}, replace(base, num_bad_links=count))
        for count in failed_link_counts
    ]
    return run_point_sweep(
        name="Figure 4",
        description="Algorithm 1 precision/recall vs #failed links; "
        + theorem2_bound_label(base, failed_link_counts),
        points=points,
        metric_fns=detection_metrics(include_baselines=include_baselines),
        trials=trials,
        base_seed=seed,
        runner=runner,
    )
