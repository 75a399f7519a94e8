"""Regenerate every experiment of the registry, time it and print its rows.

Matrix rows (:data:`repro.experiments.figures.FIGURES`) run their default
axes at one trial per point; the measured experiments
(:data:`~repro.experiments.figures.MEASURED`) run at their defaults.  Run
the reproduction report with::

    pytest benchmarks/bench_figures.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURES, MEASURED, run_figure

#: metric floors the per-figure benchmarks asserted: name -> (metric, floor).
FLOORS = {"fig03": ("accuracy_007", 0.7), "fig12": ("precision_007", 0.5)}


@pytest.mark.parametrize("name", sorted([*FIGURES, *MEASURED]))
def test_bench_experiment(benchmark, name):
    if name in FIGURES:
        kwargs = {"figure": FIGURES[name], "trials": 1}
        result = benchmark.pedantic(run_figure, kwargs=kwargs, iterations=1, rounds=1)
    else:
        result = benchmark.pedantic(MEASURED[name], iterations=1, rounds=1)
    print()
    print(result.format_table())
    if name in FLOORS:
        metric, floor = FLOORS[name]
        assert all(value >= floor for value in result.metric_series(metric))
