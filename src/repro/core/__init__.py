"""The 007 analysis core: voting, ranking, Algorithm 1 and the full pipeline.

The analysis comes in two interchangeable engines — the dict-based reference
and the numpy-backed array engine of :mod:`repro.core.arrays` — selected via
``AnalysisAgent(engine=...)`` / ``SystemConfig.engine``.
"""

from repro.core.votes import VoteContribution, VoteTally
from repro.core.ranking import attribute_flow_causes, rank_links
from repro.core.noise import classify_noise_flows
from repro.core.blame import BlameConfig, BlameResult, find_problematic_links
from repro.core.analysis import AnalysisAgent, EngineKind, EpochReport
from repro.core.arrays import (
    ArrayVoteTally,
    ItemIndex,
    LinkIndex,
    find_problematic_links_arrays,
)
from repro.core.pipeline import SystemConfig, Zero07System
from repro.core.aggregate import LinkHealthRecord, MultiEpochAggregator

__all__ = [
    "VoteTally",
    "VoteContribution",
    "ArrayVoteTally",
    "ItemIndex",
    "LinkIndex",
    "EngineKind",
    "find_problematic_links_arrays",
    "rank_links",
    "attribute_flow_causes",
    "classify_noise_flows",
    "BlameConfig",
    "BlameResult",
    "find_problematic_links",
    "AnalysisAgent",
    "EpochReport",
    "SystemConfig",
    "Zero07System",
    "MultiEpochAggregator",
    "LinkHealthRecord",
]
