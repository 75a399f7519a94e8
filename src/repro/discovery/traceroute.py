"""Traceroute engine: carefully crafted TCP probes with increasing TTLs.

007 sends up to 15 TCP probes with TTL 0..15 that carry the *same five-tuple*
as the flow being traced (so ECMP forwards them along the same path), encode
the TTL in the IP ID field to disambiguate concurrent traces, and carry a bad
checksum so the destination's TCP stack ignores them.  Switches answer with
ICMP TTL-exceeded messages subject to the control-plane rate cap; probes that
die on a blackholed or very lossy link simply yield no response for that and
all later hops — which is itself a useful signal (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.discovery.icmp import IcmpRateLimiter
from repro.netsim.links import LinkStateTable
from repro.routing.ecmp import EcmpRouter, NoRouteError
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.topology.elements import DirectedLink
from repro.util.rng import RngLike, ensure_rng

MAX_TTL = 15


@dataclass(frozen=True)
class ProbeRecord:
    """One traceroute probe and its outcome."""

    ttl: int
    ip_id: int
    responder: Optional[str]
    dropped_on: Optional[DirectedLink] = None
    rate_limited: bool = False


@dataclass
class TracerouteResult:
    """Outcome of tracing one flow."""

    five_tuple: FiveTuple
    src_host: str
    dst_host: str
    probes: List[ProbeRecord] = field(default_factory=list)
    true_path: Optional[Path] = None
    discovered_links: List[DirectedLink] = field(default_factory=list)
    reached_destination: bool = False

    @property
    def complete(self) -> bool:
        """True when the full path (every link) was discovered."""
        return (
            self.true_path is not None
            and len(self.discovered_links) == self.true_path.hop_count
        )


class TracerouteEngine:
    """Sends crafted traceroute probes over the simulated network.

    Parameters
    ----------
    router:
        ECMP router used to determine the *current* path of the probed
        five-tuple (which equals the flow's path as long as no reroute
        happened in between).
    link_table:
        Per-link drop probabilities; probes are ordinary packets and can be
        dropped too.
    icmp_limiter:
        The per-switch response budget.
    probe_loss:
        When True (default) probes experience the same loss process as data
        packets; set to False for idealised traces in unit tests.
    """

    def __init__(
        self,
        router: EcmpRouter,
        link_table: LinkStateTable,
        icmp_limiter: Optional[IcmpRateLimiter] = None,
        probe_loss: bool = True,
        rng: RngLike = 0,
    ) -> None:
        self._router = router
        self._link_table = link_table
        self._icmp = icmp_limiter or IcmpRateLimiter()
        self._probe_loss = probe_loss
        self._rng = ensure_rng(rng)
        self._next_ip_id = 1

    # ------------------------------------------------------------------
    @property
    def icmp_limiter(self) -> IcmpRateLimiter:
        """The ICMP rate limiter in use."""
        return self._icmp

    def trace(
        self,
        flow: FiveTuple,
        src_host: str,
        dst_host: str,
        time_s: float = 0.0,
    ) -> TracerouteResult:
        """Trace the path of ``flow`` from ``src_host`` to ``dst_host``.

        ``time_s`` is the absolute time (seconds) of the trace; it drives the
        per-second ICMP budget accounting.
        """
        result = TracerouteResult(
            five_tuple=flow, src_host=src_host, dst_host=dst_host
        )
        try:
            path = self._router.route(flow, src_host, dst_host)
        except NoRouteError:
            # Nothing is reachable; no probes are even forwarded beyond the host.
            return result
        result.true_path = path

        nodes = path.nodes()
        known_nodes = {0: nodes[0]}  # position -> name; position i is nodes[i]
        # TTL t expires at nodes[t] (the t-th hop after the source).
        for ttl in range(1, min(len(nodes), MAX_TTL + 1)):
            ip_id = self._allocate_ip_id(ttl)
            dropped_on = self._forward_probe(path, hops=ttl)
            if dropped_on is not None:
                result.probes.append(
                    ProbeRecord(ttl=ttl, ip_id=ip_id, responder=None, dropped_on=dropped_on)
                )
                continue
            node = nodes[ttl]
            if ttl == len(nodes) - 1:
                # Probe reached the destination host; its stack discards the bad
                # checksum but the TTL did not expire in the network, so the
                # host's response (RST/ICMP port unreachable) identifies it.
                result.probes.append(ProbeRecord(ttl=ttl, ip_id=ip_id, responder=node))
                result.reached_destination = True
                known_nodes[ttl] = node
                continue
            if self._icmp.allow(node, time_s):
                result.probes.append(ProbeRecord(ttl=ttl, ip_id=ip_id, responder=node))
                known_nodes[ttl] = node
            else:
                result.probes.append(
                    ProbeRecord(ttl=ttl, ip_id=ip_id, responder=None, rate_limited=True)
                )
        result.discovered_links = self._links_from_responses(path, known_nodes)
        self._infer_link_after_last_hop(result, path, known_nodes, dst_host)
        return result

    # ------------------------------------------------------------------
    def _forward_probe(self, path: Path, hops: int) -> Optional[DirectedLink]:
        """Forward a probe across the first ``hops`` links; return the dropping link."""
        for link in path.links[:hops]:
            p = self._link_table.drop_probability(link)
            if p <= 0.0:
                continue
            if not self._probe_loss and p < 1.0:
                continue
            if p >= 1.0 or self._rng.random() < p:
                return link
        return None

    @staticmethod
    def _links_from_responses(path: Path, known_nodes: dict[int, str]) -> List[DirectedLink]:
        """Links whose both endpoints were identified by the trace."""
        links: List[DirectedLink] = []
        for i, link in enumerate(path.links):
            if i in known_nodes and (i + 1) in known_nodes:
                links.append(link)
        return links

    def _infer_link_after_last_hop(
        self,
        result: TracerouteResult,
        path: Path,
        known_nodes: dict[int, str],
        dst_host: str,
    ) -> None:
        """Pinpoint a blackholed link from a truncated trace (Section 4.2).

        When probes stop answering after some hop, the agent knows the
        destination and the topology; if the *next* hop from the last
        responding switch toward the destination is uniquely determined (the
        switch is the destination's ToR, or a tier-1 switch in the
        destination's pod), the dead link itself can be named even though its
        far end never answered.
        """
        if result.reached_destination:
            return
        # Deepest contiguous known position starting from the source.
        position = 0
        while (position + 1) in known_nodes:
            position += 1
        if position >= path.hop_count:
            return
        topo = self._router.topology
        last = path.nodes()[position]
        if not topo.is_switch(last):
            return
        dst = topo.host(dst_host)
        switch = topo.switch(last)
        if switch.name == dst.tor:
            next_hop = dst_host
        elif switch.tier.name == "T1" and switch.pod == dst.pod:
            next_hop = dst.tor
        else:
            return
        inferred = DirectedLink(last, next_hop)
        if inferred not in result.discovered_links and topo.has_link(last, next_hop):
            result.discovered_links.append(inferred)

    def _allocate_ip_id(self, ttl: int) -> int:
        """Encode the TTL in the IP ID field (disambiguates concurrent traces)."""
        ip_id = (self._next_ip_id << 4) | (ttl & 0xF)
        self._next_ip_id = (self._next_ip_id + 1) % 4096
        return ip_id & 0xFFFF
