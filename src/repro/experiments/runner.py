"""Parallel experiment runner: fan sweep points and trials over worker processes.

Every sweep of the figure matrix (:mod:`repro.experiments.figures`) is the
same shape of work — a list of sweep points, each run for several trials
with forked seeds, each trial scored by a set of metric functions, trial
scores averaged per point.  The :class:`SweepRunner` owns that shape once:
it expands ``points x trials`` into independent tasks, runs them serially
(``workers <= 1``) or across a ``multiprocessing`` pool, and reassembles the
results **in task order**, so the produced
:class:`~repro.experiments.base.ExperimentResult` rows are byte-identical
regardless of the worker count.

Determinism contract
--------------------
* Trial seeds are forked as ``base_seed + TRIAL_SEED_STRIDE * trial``, so a
  trial's scenario does not depend on the worker that runs it.
* Tasks are generated in ``(point, trial)`` order and results are reassembled
  by task index (``Pool.map`` preserves order), never by completion time.

With ``workers > 1`` the metric functions and configs must be picklable: the
metric sets in :mod:`repro.experiments.sweeps` are module-level functions for
exactly this reason.  Arbitrary lambdas still work in serial mode.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.scenario import ScenarioConfig, run_scenario

MetricFn = Callable[["ScenarioResult"], float]

#: seed stride between trials; changing it changes every sweep's rows.
TRIAL_SEED_STRIDE = 1009


def fork_trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic per-trial seed: ``base_seed + TRIAL_SEED_STRIDE * trial``."""
    return base_seed + TRIAL_SEED_STRIDE * trial


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: a single trial of a single sweep point."""

    point_index: int
    trial_index: int
    config: ScenarioConfig
    metric_fns: Mapping[str, MetricFn]


def _run_task(task: SweepTask) -> Dict[str, float]:
    """Run one scenario trial and score every metric (worker entry point)."""
    result = run_scenario(task.config)
    return {name: float(fn(result)) for name, fn in task.metric_fns.items()}


class SweepRunner:
    """Runs experiment sweeps, optionally across a process pool.

    Parameters
    ----------
    workers:
        ``None`` or ``<= 1`` runs every task in-process (serial, supports
        unpicklable metric functions).  ``> 1`` fans tasks out over a
        ``multiprocessing.Pool`` of that size.
    mp_context:
        Start-method name forwarded to :func:`multiprocessing.get_context`
        (``None`` uses the platform default, ``fork`` on Linux).
    """

    def __init__(self, workers: Optional[int] = None, mp_context: Optional[str] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0")
        self._workers = int(workers) if workers else 1
        self._mp_context = mp_context

    @property
    def workers(self) -> int:
        """Number of worker processes (1 means serial in-process execution)."""
        return self._workers

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results **in item order**.

        The generic fan-out primitive behind :meth:`run_tasks` (and the
        scenario-pack runner): serial in-process when ``workers <= 1`` or
        there is at most one item, otherwise an order-preserving
        ``Pool.map`` — so results are identical at any worker count as long
        as ``fn`` is a pure function of its item.  With ``workers > 1``,
        ``fn`` and the items must be picklable (use module-level functions).
        """
        if self._workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        context = multiprocessing.get_context(self._mp_context)
        with context.Pool(processes=min(self._workers, len(items))) as pool:
            return pool.map(fn, items)

    def run_tasks(self, tasks: Sequence[SweepTask]) -> List[Dict[str, float]]:
        """Execute tasks, returning their metric dicts in task order."""
        return self.map(_run_task, tasks)

    def run_trials(
        self,
        config: ScenarioConfig,
        metric_fns: Mapping[str, MetricFn],
        trials: int = 3,
        base_seed: Optional[int] = None,
    ) -> Dict[str, float]:
        """Average each metric over ``trials`` forked-seed runs of ``config``.

        ``nan`` trial values are ignored; a metric that is ``nan`` in every
        trial stays ``nan``.
        """
        result = self.run_sweep([({}, config)], metric_fns, trials=trials, base_seed=base_seed)
        return result.points[0].metrics

    def run_sweep(
        self,
        points: Sequence[Tuple[Dict[str, Any], ScenarioConfig]],
        metric_fns: Mapping[str, MetricFn],
        trials: int = 3,
        base_seed: Optional[int] = None,
        name: str = "sweep",
        description: str = "",
    ) -> ExperimentResult:
        """Run every ``(parameters, config)`` sweep point for ``trials`` trials.

        All ``len(points) * trials`` tasks are fanned out together, so a pool
        is saturated even when single points have fewer trials than workers.
        """
        tasks: List[SweepTask] = []
        for index, (_, config) in enumerate(points):
            seed_origin = base_seed if base_seed is not None else config.seed
            for trial in range(trials):
                tasks.append(
                    SweepTask(
                        point_index=index,
                        trial_index=trial,
                        config=replace(config, seed=fork_trial_seed(seed_origin, trial)),
                        metric_fns=dict(metric_fns),
                    )
                )
        outcomes = self.run_tasks(tasks)

        result = ExperimentResult(name=name, description=description)
        for index, (parameters, _) in enumerate(points):
            samples: Dict[str, List[float]] = {name_: [] for name_ in metric_fns}
            for task, metrics in zip(tasks, outcomes):
                if task.point_index != index:
                    continue
                for metric_name, value in metrics.items():
                    if not np.isnan(value):
                        samples[metric_name].append(value)
            averaged = {
                metric_name: (float(np.mean(values)) if values else float("nan"))
                for metric_name, values in samples.items()
            }
            result.add_point(parameters, averaged)
        return result
