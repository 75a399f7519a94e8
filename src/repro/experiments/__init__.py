"""Experiment harness: the paper's tables and figures, regenerated.

The sweep experiments (Figures 3-12, Sections 6.6-6.7, the ablations) are
rows of one table, :data:`repro.experiments.figures.FIGURES`, run by
:func:`~repro.experiments.figures.run_figure`.  The experiments a sweep cannot
express (Figure 1, Table 1, Figure 13, Sections 7.2, 8.2 and 8.3) keep one
module each, listed in :data:`~repro.experiments.figures.MEASURED`.  Every
experiment returns an :class:`~repro.experiments.base.ExperimentResult` whose
rows mirror the series/columns the paper reports.
"""

from repro.experiments.base import ExperimentPoint, ExperimentResult
from repro.experiments.scenario import ScenarioConfig, ScenarioResult, run_scenario

__all__ = [
    "ExperimentPoint",
    "ExperimentResult",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
]
