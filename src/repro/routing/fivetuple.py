"""The TCP/IP five-tuple, the unit ECMP hashes on.

All packets of a flow share the five-tuple and therefore the path (RFC 2992).
Traceroute probes must carry the *same* five-tuple as the flow they trace —
this is the central engineering constraint of the path discovery agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, order=True)
class FiveTuple:
    """An IP five-tuple ``(src_ip, dst_ip, src_port, dst_port, protocol)``."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port {port} outside [0, 65535]")
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol {self.protocol} outside [0, 255]")

    def reversed(self) -> "FiveTuple":
        """The five-tuple of packets flowing in the opposite direction."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def with_destination(self, dst_ip: str, dst_port: int | None = None) -> "FiveTuple":
        """Return a copy with the destination rewritten (VIP -> DIP rewriting)."""
        return replace(
            self,
            dst_ip=dst_ip,
            dst_port=self.dst_port if dst_port is None else dst_port,
        )

    def canonical_key(self) -> tuple:
        """A hashable key identifying the flow (direction sensitive)."""
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
            f"/{self.protocol}"
        )
