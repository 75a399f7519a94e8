"""Figure 3: per-connection accuracy vs number of failed links.

Failed-link drop rates are drawn from (0.05%, 1%) so that Theorem 2's
signal-to-noise condition holds; the description names Theorem 2's bound on
the number of failed links for the fabric and the swept counts past it.  The
paper reports 007 averaging above 96% accuracy and generally beating the
integer optimization.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import SweepRunner, run_point_sweep
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweeps import accuracy_metrics, theorem2_bound_label

DEFAULT_FAILED_LINK_COUNTS = (2, 6, 10, 14)


def run_fig03(
    failed_link_counts: Sequence[int] = DEFAULT_FAILED_LINK_COUNTS,
    trials: int = 3,
    seed: int = 0,
    include_baselines: bool = True,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Regenerate Figure 3 (accuracy vs number of failed links)."""
    base = ScenarioConfig(
        drop_rate_range=(5e-4, 1e-2),
        seed=seed,
    )
    points = [
        ({"num_failed_links": count}, replace(base, num_bad_links=count))
        for count in failed_link_counts
    ]
    return run_point_sweep(
        name="Figure 3",
        description="per-connection accuracy vs #failed links; "
        + theorem2_bound_label(base, failed_link_counts),
        points=points,
        metric_fns=accuracy_metrics(include_baselines=include_baselines),
        trials=trials,
        base_seed=seed,
        runner=runner,
    )
