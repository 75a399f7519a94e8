"""Parametric Clos topology (Definition 1 of the paper).

A Clos topology has ``npod`` pods, each with ``n0`` ToR switches and ``n1``
tier-1 switches connected by a complete bipartite network (level-1 links).
The tier-1 switches of every pod connect to all ``n2`` tier-2 switches
(level-2 links).  ``hosts_per_tor`` servers hang off each ToR.  An optional
tier-3 layer can be added; the paper ignores it in the analysis because only
~2% of flows traverse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.topology.elements import Host, LinkLevel, Switch, SwitchTier
from repro.topology.topology import Topology


@dataclass(frozen=True)
class ClosParameters:
    """Sizing parameters of a Clos topology.

    Attributes mirror the paper's notation: ``npod`` pods, ``n0`` ToR switches
    per pod, ``n1`` tier-1 switches per pod, ``n2`` tier-2 switches shared by
    all pods and ``hosts_per_tor`` (the paper's ``H``).
    """

    npod: int = 2
    n0: int = 20
    n1: int = 4
    n2: int = 4
    hosts_per_tor: int = 4
    n3: int = 0

    def __post_init__(self) -> None:
        if self.npod < 1:
            raise ValueError("npod must be >= 1")
        if min(self.n0, self.n1, self.n2) < 1:
            raise ValueError("n0, n1 and n2 must be >= 1")
        if self.hosts_per_tor < 1:
            raise ValueError("hosts_per_tor must be >= 1")
        if self.n3 < 0:
            raise ValueError("n3 must be >= 0")

    @property
    def num_hosts(self) -> int:
        """Total number of servers."""
        return self.npod * self.n0 * self.hosts_per_tor

    @property
    def num_level1_links(self) -> int:
        """Number of ToR-T1 physical links."""
        return self.npod * self.n0 * self.n1

    @property
    def num_level2_links(self) -> int:
        """Number of T1-T2 physical links."""
        return self.npod * self.n1 * self.n2

    @property
    def num_host_links(self) -> int:
        """Number of server-ToR physical links."""
        return self.num_hosts

    @property
    def num_level3_links(self) -> int:
        """Number of T2-T3 physical links."""
        return self.n2 * self.n3

    @property
    def num_links(self) -> int:
        """Total number of physical links."""
        return (
            self.num_host_links
            + self.num_level1_links
            + self.num_level2_links
            + self.num_level3_links
        )


class ClosTopology(Topology):
    """A Clos (folded-Clos / leaf-spine-with-pods) datacenter topology.

    Naming convention:

    * hosts: ``"pod{p}-tor{i}-host{j}"``
    * ToR switches: ``"pod{p}-tor{i}"``
    * tier-1 switches: ``"pod{p}-t1-{j}"``
    * tier-2 switches: ``"t2-{k}"``
    * tier-3 switches: ``"t3-{m}"``
    """

    def __init__(self, params: Optional[ClosParameters] = None, **kwargs) -> None:
        """Build the topology from ``params`` or keyword overrides.

        Either pass a fully-formed :class:`ClosParameters` or any subset of
        its fields as keyword arguments (e.g. ``ClosTopology(npod=3, n0=8)``).
        """
        super().__init__()
        if params is None:
            params = ClosParameters(**kwargs)
        elif kwargs:
            raise TypeError("pass either params or keyword overrides, not both")
        self._params = params
        self._build()
        self.validate()

    # ------------------------------------------------------------------
    @property
    def params(self) -> ClosParameters:
        """The sizing parameters this topology was built from."""
        return self._params

    # ------------------------------------------------------------------
    def _build(self) -> None:
        p = self._params
        # Tier-2 (and optional tier-3) switches are shared across pods.
        for k in range(p.n2):
            self._add_switch(Switch(name=f"t2-{k}", tier=SwitchTier.T2, index=k))
        for m in range(p.n3):
            self._add_switch(Switch(name=f"t3-{m}", tier=SwitchTier.T3, index=m))

        for pod in range(p.npod):
            for j in range(p.n1):
                self._add_switch(
                    Switch(name=f"pod{pod}-t1-{j}", tier=SwitchTier.T1, index=j, pod=pod)
                )
            for i in range(p.n0):
                tor_name = f"pod{pod}-tor{i}"
                self._add_switch(
                    Switch(name=tor_name, tier=SwitchTier.TOR, index=i, pod=pod)
                )
                for h in range(p.hosts_per_tor):
                    host_name = f"{tor_name}-host{h}"
                    self._add_host(
                        Host(name=host_name, tor=tor_name, pod=pod, index=h)
                    )
                    self._add_link(host_name, tor_name, LinkLevel.HOST)
                # level-1: complete bipartite ToR x T1 inside the pod
                for j in range(p.n1):
                    self._add_link(tor_name, f"pod{pod}-t1-{j}", LinkLevel.LEVEL1)
            # level-2: complete bipartite T1 x T2
            for j in range(p.n1):
                for k in range(p.n2):
                    self._add_link(f"pod{pod}-t1-{j}", f"t2-{k}", LinkLevel.LEVEL2)
        # optional level-3: complete bipartite T2 x T3
        for k in range(p.n2):
            for m in range(p.n3):
                self._add_link(f"t2-{k}", f"t3-{m}", LinkLevel.LEVEL3)

    # ------------------------------------------------------------------
    # Clos-specific accessors
    # ------------------------------------------------------------------
    def tors(self, pod: Optional[int] = None) -> List[Switch]:
        """ToR switches (of ``pod`` when given)."""
        return self.switches_of_tier(SwitchTier.TOR, pod)

    def tier1s(self, pod: Optional[int] = None) -> List[Switch]:
        """Tier-1 switches (of ``pod`` when given)."""
        return self.switches_of_tier(SwitchTier.T1, pod)

    def tier2s(self) -> List[Switch]:
        """Tier-2 switches."""
        return self.switches_of_tier(SwitchTier.T2)

    def expected_hop_count(self, src_host: str, dst_host: str) -> int:
        """Number of links on the path between two hosts under ECMP routing.

        Intra-rack flows traverse 2 links, intra-pod flows 4 links and
        cross-pod flows 6 links (counting both server-ToR links).
        """
        src = self.host(src_host)
        dst = self.host(dst_host)
        if src.tor == dst.tor:
            return 2
        if src.pod == dst.pod:
            return 4
        return 6
