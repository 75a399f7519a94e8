"""Base topology abstraction shared by the Clos and test-cluster topologies.

A topology is a collection of :class:`~repro.topology.elements.Switch` and
:class:`~repro.topology.elements.Host` nodes plus undirected physical links.
It offers graph-style queries (neighbours, link levels, networkx export) that
the routing, simulation and analysis layers rely on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.topology.elements import (
    DirectedLink,
    Host,
    Link,
    LinkLevel,
    Switch,
    SwitchTier,
)


class Topology:
    """A generic datacenter topology.

    Subclasses populate the node and link tables in their constructor via
    :meth:`_add_switch`, :meth:`_add_host` and :meth:`_add_link`.
    """

    def __init__(self) -> None:
        self._switches: Dict[str, Switch] = {}
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Link, LinkLevel] = {}
        self._adjacency: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _add_switch(self, switch: Switch) -> None:
        if switch.name in self._switches or switch.name in self._hosts:
            raise ValueError(f"duplicate node name {switch.name!r}")
        self._switches[switch.name] = switch
        self._adjacency.setdefault(switch.name, [])

    def _add_host(self, host: Host) -> None:
        if host.name in self._switches or host.name in self._hosts:
            raise ValueError(f"duplicate node name {host.name!r}")
        self._hosts[host.name] = host
        self._adjacency.setdefault(host.name, [])

    def _add_link(self, a: str, b: str, level: LinkLevel) -> Link:
        if a not in self._adjacency or b not in self._adjacency:
            raise ValueError(f"link endpoints must be added first: {a!r}, {b!r}")
        link = Link.of(a, b)
        if link in self._links:
            raise ValueError(f"duplicate link {link}")
        self._links[link] = level
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        return link

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

    def node_names(self) -> Iterator[str]:
        """Iterate over every node name (hosts then switches)."""
        yield from self._hosts
        yield from self._switches

    def switches_of_tier(self, tier: SwitchTier, pod: Optional[int] = None) -> List[Switch]:
        """Return switches of ``tier`` (restricted to ``pod`` when given)."""
        result = [s for s in self._switches.values() if s.tier == tier]
        if pod is not None:
            result = [s for s in result if s.pod == pod]
        return sorted(result, key=lambda s: s.name)

    def hosts_under_tor(self, tor_name: str) -> List[Host]:
        """Return the hosts attached to ToR switch ``tor_name``."""
        return sorted(
            (h for h in self._hosts.values() if h.tor == tor_name),
            key=lambda h: h.name,
        )

    def tor_of_host(self, host_name: str) -> Switch:
        """Return the ToR switch of ``host_name``."""
        return self._switches[self._hosts[host_name].tor]

    def neighbors(self, name: str) -> List[str]:
        """Return the neighbour names of node ``name``."""
        return list(self._adjacency[name])

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

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_networkx(self) -> "networkx.Graph":
        """Export the topology as an undirected :class:`networkx.Graph`.

        Node attributes carry ``kind`` (``"host"``/``"switch"``) and, for
        switches, ``tier`` and ``pod``.  Edge attribute ``level`` carries the
        :class:`LinkLevel`.
        """
        import networkx as nx  # only this export needs it

        graph = nx.Graph()
        for host in self._hosts.values():
            graph.add_node(host.name, kind="host", pod=host.pod, tor=host.tor)
        for switch in self._switches.values():
            graph.add_node(
                switch.name, kind="switch", tier=switch.tier, pod=switch.pod
            )
        for link, level in self._links.items():
            graph.add_edge(link.a, link.b, level=level)
        return graph

    def describe(self) -> str:
        """Return a one-line human-readable summary of the topology."""
        return (
            f"{type(self).__name__}: {len(self._hosts)} hosts, "
            f"{len(self._switches)} switches, {len(self._links)} links"
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
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
