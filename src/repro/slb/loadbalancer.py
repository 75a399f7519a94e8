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
failed control-plane queries and flows the SLB has no mapping for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

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
        Prefix used to synthesise one VIP per destination host; each VIP
        fronts exactly that host.
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
        self._flow_to_dip: Dict[Tuple, str] = {}
        self._vswitches: Dict[str, VirtualSwitch] = {}

    def vip_for_host(self, dst_host: str) -> str:
        """The synthetic VIP fronting ``dst_host``."""
        return f"{self._vip_prefix}:{dst_host}"

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
        dip = dst_host
        app_tuple = FiveTuple(
            src_ip=src_host,
            dst_ip=self.vip_for_host(dst_host),
            src_port=src_port,
            dst_port=dst_port,
        )
        data_tuple = app_tuple.with_destination(dip)
        self._flow_to_dip[app_tuple.canonical_key()] = dip
        self.vswitch(src_host).register(app_tuple.canonical_key(), dip)
        return app_tuple, data_tuple

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
        if self._query_failure_rate > 0 and self._rng.random() < self._query_failure_rate:
            raise SlbQueryError("SLB query timed out")
        dip = self._flow_to_dip.get(app_tuple.canonical_key())
        if dip is None:
            raise SlbQueryError(f"no VIP->DIP mapping for {app_tuple}")
        return dip

    def vswitch(self, host: str) -> VirtualSwitch:
        """The vSwitch of ``host`` (created on first use)."""
        if host not in self._vswitches:
            self._vswitches[host] = VirtualSwitch(host=host)
        return self._vswitches[host]
