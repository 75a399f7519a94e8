"""Software load balancer, virtual switch and SNAT models.

In the paper's datacenter a TCP connection is established to a *virtual* IP
(VIP); the SYN traverses the software load balancer (SLB), which assigns the
flow to a physical destination IP (DIP) and pushes that mapping down to the
virtual switch (vSwitch) of the source hypervisor.  All later packets carry
the DIP and bypass the SLB.  For the traceroute of the path discovery agent
to follow the data packets, its header must contain the DIP — so the agent
queries the SLB (preferred, because the vSwitch may have evicted the mapping
when the connection died) before tracing.

The models here reproduce that query surface including its failure modes:
missing mappings, evicted vSwitch entries, and SNAT rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.routing.fivetuple import FiveTuple
from repro.util.rng import RngLike, ensure_rng


class SlbQueryError(RuntimeError):
    """The SLB could not resolve a VIP -> DIP mapping for a flow."""


@dataclass
class VirtualSwitch:
    """Per-hypervisor vSwitch holding the VIP->DIP registrations of its flows."""

    host: str
    mappings: Dict[Tuple, str] = field(default_factory=dict)

    def register(self, flow_key: Tuple, dip: str) -> None:
        """Record the DIP the SLB assigned to a flow originating on this host."""
        self.mappings[flow_key] = dip

    def evict(self, flow_key: Tuple) -> None:
        """Remove a registration (happens when the connection terminates)."""
        self.mappings.pop(flow_key, None)

    def lookup(self, flow_key: Tuple) -> Optional[str]:
        """Return the DIP for a flow, or ``None`` when the entry was evicted."""
        return self.mappings.get(flow_key)


class SoftwareLoadBalancer:
    """VIP -> DIP assignment with vSwitch registration.

    Parameters
    ----------
    query_failure_rate:
        Probability that an SLB control-plane query fails (007 then skips path
        discovery for that flow rather than tracerouting the Internet).
    vip_prefix:
        Prefix used to synthesise one VIP per destination service/host.
    """

    def __init__(
        self,
        query_failure_rate: float = 0.0,
        vip_prefix: str = "vip",
        rng: RngLike = 0,
    ) -> None:
        if not 0.0 <= query_failure_rate <= 1.0:
            raise ValueError("query_failure_rate must be in [0, 1]")
        self._query_failure_rate = query_failure_rate
        self._vip_prefix = vip_prefix
        self._rng = ensure_rng(rng)
        self._vip_pools: Dict[str, List[str]] = {}
        self._flow_to_dip: Dict[Tuple, str] = {}
        self._vswitches: Dict[str, VirtualSwitch] = {}
        self._queries = 0
        self._failed_queries = 0

    # ------------------------------------------------------------------
    # VIP pool management
    # ------------------------------------------------------------------
    def register_vip(self, vip: str, dips: List[str]) -> None:
        """Register (or replace) the DIP pool behind ``vip``."""
        if not dips:
            raise ValueError("a VIP needs at least one DIP")
        self._vip_pools[vip] = list(dips)

    def vip_for_host(self, dst_host: str) -> str:
        """The synthetic VIP fronting ``dst_host`` (auto-registered)."""
        vip = f"{self._vip_prefix}:{dst_host}"
        if vip not in self._vip_pools:
            self._vip_pools[vip] = [dst_host]
        return vip

    def dips_of(self, vip: str) -> List[str]:
        """The DIP pool behind ``vip``."""
        return list(self._vip_pools.get(vip, []))

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def establish_connection(
        self,
        src_host: str,
        dst_host: str,
        src_port: int,
        dst_port: int,
    ) -> Tuple[FiveTuple, FiveTuple]:
        """Establish a connection from ``src_host`` to the VIP of ``dst_host``.

        Returns ``(app_tuple, data_tuple)``: the tuple the application sees
        (destination = VIP) and the tuple data packets carry on the wire
        (destination = DIP), respectively.
        """
        vip = self.vip_for_host(dst_host)
        dip = self._pick_dip(vip, preferred=dst_host)
        app_tuple = FiveTuple(
            src_ip=src_host, dst_ip=vip, src_port=src_port, dst_port=dst_port
        )
        data_tuple = app_tuple.with_destination(dip)
        self._flow_to_dip[app_tuple.canonical_key()] = dip
        self.vswitch(src_host).register(app_tuple.canonical_key(), dip)
        return app_tuple, data_tuple

    def terminate_connection(self, app_tuple: FiveTuple, src_host: str) -> None:
        """Tear down a connection: the vSwitch entry is evicted (SLB keeps its state)."""
        self.vswitch(src_host).evict(app_tuple.canonical_key())

    # ------------------------------------------------------------------
    # queries used by the path discovery agent
    # ------------------------------------------------------------------
    def query_dip(self, app_tuple: FiveTuple) -> str:
        """Resolve the DIP assigned to a flow (the agent's preferred query).

        Raises :class:`SlbQueryError` when the query fails (either because the
        control plane is unavailable — simulated by ``query_failure_rate`` —
        or because the flow is unknown, e.g. a connection whose establishment
        itself failed).
        """
        self._queries += 1
        if self._query_failure_rate > 0 and self._rng.random() < self._query_failure_rate:
            self._failed_queries += 1
            raise SlbQueryError("SLB query timed out")
        dip = self._flow_to_dip.get(app_tuple.canonical_key())
        if dip is None:
            self._failed_queries += 1
            raise SlbQueryError(f"no VIP->DIP mapping for {app_tuple}")
        return dip

    def vswitch(self, host: str) -> VirtualSwitch:
        """The vSwitch of ``host`` (created on first use)."""
        if host not in self._vswitches:
            self._vswitches[host] = VirtualSwitch(host=host)
        return self._vswitches[host]

    @property
    def query_stats(self) -> Tuple[int, int]:
        """``(total_queries, failed_queries)`` counters."""
        return self._queries, self._failed_queries

    # ------------------------------------------------------------------
    def _pick_dip(self, vip: str, preferred: Optional[str] = None) -> str:
        pool = self._vip_pools[vip]
        if preferred is not None and preferred in pool:
            return preferred
        return pool[int(self._rng.integers(0, len(pool)))]
