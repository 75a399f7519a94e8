"""Unit tests for the parallel sweep runner.

The load-bearing properties: per-trial seeds fork as ``base + 1009 * trial``,
results are byte-identical regardless of the worker count, points keep their
order, and ``nan`` trials are skipped in the average.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import SweepRunner, TRIAL_SEED_STRIDE, fork_trial_seed
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.sweeps import accuracy_metrics

#: a deliberately tiny scenario so every test stays fast.
TINY = dict(
    npod=2,
    n0=3,
    n1=2,
    n2=2,
    hosts_per_tor=2,
    connections_per_host=8,
    packets_per_flow=50,
    num_bad_links=1,
    drop_rate_range=(5e-3, 1e-2),
)


def _config(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, **TINY)


def _nan_metric(result) -> float:
    return float("nan")


class TestSeedForking:
    def test_fork_matches_historical_derivation(self):
        assert fork_trial_seed(7, 0) == 7
        assert fork_trial_seed(7, 3) == 7 + 3 * TRIAL_SEED_STRIDE

    def test_trials_differ_across_seeds(self):
        """Forked trials really run different scenarios (not the same seed)."""
        a = run_scenario(_config(seed=fork_trial_seed(0, 0)))
        b = run_scenario(_config(seed=fork_trial_seed(0, 1)))
        assert a.failure_scenario.bad_links != b.failure_scenario.bad_links or (
            a.epoch_results[0].total_drops != b.epoch_results[0].total_drops
        )


class TestWorkerCountInvariance:
    def test_parallel_rows_byte_identical_to_serial(self):
        points = [
            ({"bad": count}, ScenarioConfig(seed=0, **{**TINY, "num_bad_links": count}))
            for count in (1, 2)
        ]
        metrics = accuracy_metrics(include_baselines=False)
        kwargs = dict(points=points, metric_fns=metrics, trials=2, base_seed=0)
        serial = SweepRunner(workers=1).run_sweep(**kwargs)
        parallel = SweepRunner(workers=2).run_sweep(**kwargs)
        assert serial.rows() == parallel.rows()

    def test_point_order_preserved(self):
        points = [({"i": i}, _config(seed=i)) for i in range(4)]
        result = SweepRunner(workers=2).run_sweep(
            points, accuracy_metrics(include_baselines=False), trials=1, base_seed=0
        )
        assert [p.parameters["i"] for p in result.points] == [0, 1, 2, 3]


class TestNanHandling:
    def test_all_nan_metric_stays_nan(self):
        averaged = SweepRunner(workers=1).run_trials(
            _config(), {"always_nan": _nan_metric}, trials=2, base_seed=0
        )
        assert np.isnan(averaged["always_nan"])


class TestRunnerDefaults:
    def test_default_runner_is_serial(self):
        """``SweepRunner()`` and ``workers=0`` run in-process, so a lambda
        (unpicklable) metric works, and trials see forked seeds."""
        for runner in (SweepRunner(), SweepRunner(workers=0)):
            assert runner.workers == 1
            averaged = runner.run_trials(
                _config(), {"seed": lambda result: result.config.seed}, trials=2, base_seed=0
            )
            assert averaged["seed"] == fork_trial_seed(0, 1) / 2

    def test_invalid_workers_raise(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=-1)
