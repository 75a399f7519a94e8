"""Parametric Clos topology (Definition 1 of the paper) and its integer index.

A Clos topology has ``npod`` pods, each with ``n0`` ToR switches and ``n1``
tier-1 switches connected by a complete bipartite network (level-1 links).
The tier-1 switches of every pod connect to all ``n2`` tier-2 switches
(level-2 links).  ``hosts_per_tor`` servers hang off each ToR.  An optional
tier-3 layer can be added; the paper ignores it in the analysis because only
~2% of flows traverse it.

:class:`FabricIndex` numbers the fabric's hosts, switches and directed links
once per topology; the load generator, the traffic generators and the ECMP
router read its tables instead of keeping their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.topology.elements import (
    DirectedLink,
    Host,
    Link,
    LinkLevel,
    Switch,
    SwitchTier,
)


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


class ClosTopology:
    """A Clos (folded-Clos / leaf-spine-with-pods) datacenter topology.

    Switches, hosts and the undirected physical links between them, with the
    graph-style queries (tiers, link levels) the routing, simulation and
    analysis layers rely on, and :attr:`index`, the fabric's integer tables.

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
        if params is None:
            params = ClosParameters(**kwargs)
        elif kwargs:
            raise TypeError("pass either params or keyword overrides, not both")
        self._params = params
        self._switches: Dict[str, Switch] = {}
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Link, LinkLevel] = {}
        self._build()
        self.validate()
        #: the fabric's integer tables, built once.
        self.index = FabricIndex(self)

    # ------------------------------------------------------------------
    @property
    def params(self) -> ClosParameters:
        """The sizing parameters this topology was built from."""
        return self._params

    # ------------------------------------------------------------------
    def _add_switch(self, switch: Switch) -> None:
        self._switches[switch.name] = switch

    def _add_host(self, host: Host) -> None:
        self._hosts[host.name] = host

    def _add_link(self, a: str, b: str, level: LinkLevel) -> None:
        self._links[Link.of(a, b)] = level

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
    # node queries
    # ------------------------------------------------------------------
    @property
    def switches(self) -> Dict[str, Switch]:
        """Mapping of switch name to :class:`Switch`."""
        return dict(self._switches)

    @property
    def hosts(self) -> Dict[str, Host]:
        """Mapping of host name to :class:`Host`."""
        return dict(self._hosts)

    def switch(self, name: str) -> Switch:
        """Return the switch named ``name`` (raises ``KeyError`` otherwise)."""
        return self._switches[name]

    def host(self, name: str) -> Host:
        """Return the host named ``name`` (raises ``KeyError`` otherwise)."""
        return self._hosts[name]

    def is_host(self, name: str) -> bool:
        """True when ``name`` refers to a host."""
        return name in self._hosts

    def is_switch(self, name: str) -> bool:
        """True when ``name`` refers to a switch."""
        return name in self._switches

    def switches_of_tier(self, tier: SwitchTier, pod: Optional[int] = None) -> List[Switch]:
        """Return switches of ``tier`` (restricted to ``pod`` when given)."""
        result = [s for s in self._switches.values() if s.tier == tier]
        if pod is not None:
            result = [s for s in result if s.pod == pod]
        return sorted(result, key=lambda s: s.name)

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

    # ------------------------------------------------------------------
    # link queries
    # ------------------------------------------------------------------
    @property
    def links(self) -> List[Link]:
        """All undirected physical links, sorted."""
        return sorted(self._links)

    def directed_links(self) -> List[DirectedLink]:
        """Both directions of every physical link, sorted."""
        result: List[DirectedLink] = []
        for link in self._links:
            result.extend(link.directions())
        return sorted(result)

    def has_link(self, a: str, b: str) -> bool:
        """True when a physical link between ``a`` and ``b`` exists."""
        return Link.of(a, b) in self._links

    def link_level(self, link: Link | DirectedLink) -> LinkLevel:
        """Return the :class:`LinkLevel` of ``link``."""
        if isinstance(link, DirectedLink):
            link = link.undirected()
        return self._links[link]

    def links_of_level(self, level: LinkLevel) -> List[Link]:
        """Return all physical links of ``level``."""
        return sorted(l for l, lv in self._links.items() if lv == level)

    def links_of_node(self, name: str) -> List[Link]:
        """Return all physical links adjacent to node ``name``."""
        return sorted(l for l in self._links if name in (l.a, l.b))

    def num_links(self, directed: bool = False) -> int:
        """Number of links (doubled when ``directed``)."""
        return len(self._links) * (2 if directed else 1)

    def describe(self) -> str:
        """Return a one-line human-readable summary of the topology."""
        return (
            f"{type(self).__name__}: {len(self._hosts)} hosts, "
            f"{len(self._switches)} switches, {len(self._links)} links"
        )

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violations."""
        for host in self._hosts.values():
            if host.tor not in self._switches:
                raise ValueError(f"host {host.name} references unknown ToR {host.tor}")
            if not self.has_link(host.name, host.tor):
                raise ValueError(f"host {host.name} has no link to its ToR {host.tor}")
        for link in self._links:
            for end in (link.a, link.b):
                if end not in self._switches and end not in self._hosts:
                    raise ValueError(f"link {link} references unknown node {end}")


class FabricIndex:
    """The integer tables of one :class:`ClosTopology` (its ``index``).

    Hosts are numbered in name order, and so are switches.  A ToR's hosts,
    and a pod's, are consecutive ids: a host's name extends its ToR's.  The
    T1s of each pod and the T2s are listed in name order, so ``pod_t1[pod,
    j]`` is the switch id of ``pod_t1_names[pod][j]``.  Every directed link
    is an id into ``link_objs``, which holds one shared :class:`DirectedLink`
    per direction; ``-1`` in ``switch_link`` marks switch pairs with no
    link.  The tables are never written after construction.
    """

    def __init__(self, topology: ClosTopology) -> None:
        hosts = sorted(topology.hosts)
        #: host names; a host's id is its position.
        self.hosts: List[str] = hosts
        self.host_ids: Dict[str, int] = {h: i for i, h in enumerate(hosts)}
        #: ``hosts`` as an object array, for gathers.
        self.host_names = np.empty(len(hosts), dtype=object)
        self.host_names[:] = hosts
        switch_ids = {name: i for i, name in enumerate(sorted(topology.switches))}
        self.switch_ids: Dict[str, int] = switch_ids
        tors = [topology.host(h).tor for h in hosts]
        #: host id -> the switch id of its ToR, and its pod.
        self.host_tor = np.array([switch_ids[t] for t in tors], dtype=np.int64)
        self.host_pod = np.array([topology.host(h).pod for h in hosts], dtype=np.int64)
        npod = topology.params.npod
        self.pod_t1_names: List[List[str]] = [
            [s.name for s in topology.tier1s(pod)] for pod in range(npod)
        ]
        self.t2_names: List[str] = [s.name for s in topology.tier2s()]
        self.pod_t1 = np.array(
            [[switch_ids[name] for name in names] for names in self.pod_t1_names],
            dtype=np.int64,
        )
        self.t2 = np.array([switch_ids[name] for name in self.t2_names], dtype=np.int64)
        by_tor: Dict[str, List[int]] = {}
        for i, tor in enumerate(tors):
            by_tor.setdefault(tor, []).append(i)
        #: ToR name -> the ids of its hosts; pod -> the ids of its hosts.
        self.tor_hosts: Dict[str, np.ndarray] = {
            tor: np.asarray(ids, dtype=np.int64) for tor, ids in by_tor.items()
        }
        self.pod_hosts: List[np.ndarray] = [
            np.flatnonzero(self.host_pod == pod) for pod in range(npod)
        ]
        #: ``(src, dst)`` -> the shared link object of that direction.
        self.links: Dict[Tuple[str, str], DirectedLink] = {
            (link.src, link.dst): link for link in topology.directed_links()
        }
        self.link_objs = np.empty(len(self.links), dtype=object)
        #: host id -> the id of its link to its ToR, and from it.
        self.up_link = np.zeros(len(hosts), dtype=np.int64)
        self.down_link = np.zeros(len(hosts), dtype=np.int64)
        #: ``[src switch id, dst switch id]`` -> link id.
        self.switch_link = np.full((len(switch_ids),) * 2, -1, dtype=np.int64)
        for lid, link in enumerate(self.links.values()):
            self.link_objs[lid] = link
            if link.src in self.host_ids:
                self.up_link[self.host_ids[link.src]] = lid
            elif link.dst in self.host_ids:
                self.down_link[self.host_ids[link.dst]] = lid
            else:
                self.switch_link[switch_ids[link.src], switch_ids[link.dst]] = lid
