"""Workload profiles and fabric presets for the evidence load generator.

A :class:`WorkloadProfile` is a topology-free description of *what the
evidence stream looks like*: how host popularity is distributed, how much of
the traffic sinks into a hot ToR, how concentrated path evidence is on the
currently-bad links, and how often already-traced flows retransmit again.
Profiles are frozen dataclasses, so they are hashable, picklable and cheap to
ship into worker processes; the named constructors mirror the paper's
Section 6.4/6.5 traffic mixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Union

from repro.topology.clos import ClosParameters

#: named fabric sizings shared by the ruler's workloads and the test
#: batteries.  ``medium`` — 3 pods x 8 ToRs x 6 hosts (144 hosts, ~1.5k
#: directed links) — carries the ruler's ``steady_ingest``,
#: ``sharded_process`` and ``fleet_tcp``; ``large`` carries
#: ``operator_trickle``; ``tiny`` carries every workload under ``--quick``.
FABRIC_PRESETS: Dict[str, ClosParameters] = {
    "tiny": ClosParameters(npod=2, n0=2, n1=2, n2=2, hosts_per_tor=2),
    "small": ClosParameters(npod=2, n0=4, n1=3, n2=3, hosts_per_tor=4),
    "medium": ClosParameters(npod=3, n0=8, n1=4, n2=4, hosts_per_tor=6),
    "large": ClosParameters(npod=4, n0=16, n1=8, n2=8, hosts_per_tor=10),
}


def fabric_parameters(fabric: Union[str, ClosParameters]) -> ClosParameters:
    """Resolve a fabric preset name (or pass a sizing through unchanged)."""
    if isinstance(fabric, ClosParameters):
        return fabric
    try:
        return FABRIC_PRESETS[fabric]
    except KeyError:
        raise ValueError(
            f"unknown fabric preset {fabric!r}; choose one of "
            f"{sorted(FABRIC_PRESETS)} or pass ClosParameters"
        ) from None


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape of a synthetic evidence workload (topology-free).

    Parameters
    ----------
    popularity:
        ``"uniform"`` draws flow endpoints uniformly; ``"zipf"`` ranks hosts
        by a seed-shuffled permutation and draws them with probability
        proportional to ``1/rank**zipf_exponent`` (skewed host popularity).
    zipf_exponent:
        Skew strength of the ``"zipf"`` popularity model.
    hot_tor_fraction:
        Fraction of flows whose *destination* is drawn from under a single
        hot ToR (the Section 6.5 "hot ToR" sink).  0 disables the sink.
    num_bad_links:
        Statically bad directed links (level 1/2), chosen per seed at
        generator construction — the steady-state failures evidence
        concentrates on.  A :class:`~repro.netsim.script.ScenarioScript`
        passed to the generator adds time-varying windows on top.
    bad_path_fraction:
        Fraction of path evidence routed *through* a currently-bad link,
        split equally among the bad links active in the epoch (whatever a
        scripted failure's drop rate).  In production almost all
        retransmitting flows cross a bad link; the remainder is noise drops
        with random paths.
    max_initial_retransmissions:
        Bad flows carry ``1..max_initial_retransmissions`` retransmissions on
        their path evidence (noise flows always carry 1).
    repeat_fraction:
        Fraction of the stream that is :class:`RetransmissionEvidence` —
        O(1) count bumps for flows whose path was already emitted earlier in
        the epoch.
    max_extra_retransmissions:
        Each repeat event bumps its flow by ``1..max_extra_retransmissions``.
    """

    popularity: str = "uniform"
    zipf_exponent: float = 1.1
    hot_tor_fraction: float = 0.0
    num_bad_links: int = 2
    bad_path_fraction: float = 0.35
    max_initial_retransmissions: int = 3
    repeat_fraction: float = 0.2
    max_extra_retransmissions: int = 4

    def __post_init__(self) -> None:
        if self.popularity not in ("uniform", "zipf"):
            raise ValueError(f"unknown popularity model {self.popularity!r}")
        if not math.isfinite(self.zipf_exponent):
            raise ValueError("zipf_exponent must be finite")
        if not 0.0 <= self.hot_tor_fraction <= 1.0:
            raise ValueError("hot_tor_fraction must be in [0, 1]")
        if not 0.0 <= self.bad_path_fraction <= 1.0:
            raise ValueError("bad_path_fraction must be in [0, 1]")
        if not 0.0 <= self.repeat_fraction < 1.0:
            raise ValueError("repeat_fraction must be in [0, 1)")
        if self.num_bad_links < 0:
            raise ValueError("num_bad_links must be >= 0")
        if self.max_initial_retransmissions < 1:
            raise ValueError("max_initial_retransmissions must be >= 1")
        if self.max_extra_retransmissions < 1:
            raise ValueError("max_extra_retransmissions must be >= 1")

    # -- named mixes ----------------------------------------------------
    @classmethod
    def uniform(cls, **overrides) -> "WorkloadProfile":
        """Uniform host popularity (the paper's baseline traffic)."""
        return replace(cls(), popularity="uniform", **overrides)

    @classmethod
    def skewed(cls, **overrides) -> "WorkloadProfile":
        """Zipf-skewed host popularity (Section 6.5 skewed traffic)."""
        return replace(cls(), popularity="zipf", **overrides)

    @classmethod
    def hot_tor(cls, **overrides) -> "WorkloadProfile":
        """Half the flows sink into one hot ToR (Section 6.5 hot ToR)."""
        return replace(cls(), hot_tor_fraction=0.5, **overrides)

    #: profile name -> constructor, for the CLI.
    @staticmethod
    def named(name: str) -> "WorkloadProfile":
        """Build one of the named mixes (``uniform``/``skewed``/``hot-tor``)."""
        factories = {
            "uniform": WorkloadProfile.uniform,
            "skewed": WorkloadProfile.skewed,
            "hot-tor": WorkloadProfile.hot_tor,
        }
        try:
            return factories[name]()
        except KeyError:
            raise ValueError(
                f"unknown workload profile {name!r}; choose one of "
                f"{sorted(factories)}"
            ) from None
