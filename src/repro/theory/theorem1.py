"""Theorem 1: the per-host traceroute rate that keeps switches under Tmax.

    Ct <= Tmax / (n0 * H) * min[ n1, n2 * (n0 * npod - 1) / (n0 * (npod - 1)) ]

where ``n0``, ``n1``, ``n2`` are the numbers of ToR, tier-1 and tier-2
switches (per pod for the first two), ``npod`` the number of pods and ``H``
the number of hosts per ToR.  As long as every host starts fewer than ``Ct``
traceroutes per second, no switch generates more than ``Tmax`` ICMP responses
per second.
"""

from __future__ import annotations

from repro.topology.clos import ClosParameters


def traceroute_rate_bound(params: ClosParameters, tmax: int = 100) -> float:
    """Upper bound ``Ct`` on per-host traceroutes per second (Theorem 1).

    For a single-pod topology no flow crosses a level-2 link toward another
    pod, so only the ``n1`` term applies.
    """
    if tmax < 1:
        raise ValueError("tmax must be >= 1")
    n0, n1, n2 = params.n0, params.n1, params.n2
    npod, hosts = params.npod, params.hosts_per_tor

    if npod > 1:
        level2_term = n2 * (n0 * npod - 1) / (n0 * (npod - 1))
        limiting = min(n1, level2_term)
    else:
        limiting = float(n1)
    return tmax / (n0 * hosts) * limiting


def level1_icmp_rate(params: ClosParameters, ct: float) -> float:
    """Expected ICMP rate at a level-1 link's switch given per-host rate ``ct``.

    Equation (5) of the proof: ``R1 = Ct * H / n1``; a tier-1 switch has
    ``n0`` such links, so its total rate is ``n0 * R1``.
    """
    return params.n0 * ct * params.hosts_per_tor / params.n1


def level2_icmp_rate(params: ClosParameters, ct: float) -> float:
    """Expected ICMP rate at a tier-2 switch given per-host traceroute rate ``ct``.

    Equation (6) of the proof: ``R2`` per link times the ``n1`` links that a
    tier-2 switch terminates per pod (aggregated over pods by the n0 factor of
    the cross-pod probability).
    """
    if params.npod <= 1:
        return 0.0
    n0, n1, n2, npod = params.n0, params.n1, params.n2, params.npod
    hosts = params.hosts_per_tor
    r2 = (n0 / (n1 * n2)) * (n0 * (npod - 1) / (n0 * npod - 1)) * ct * hosts
    return n1 * r2
