"""Flow records: everything the simulator knows about one TCP connection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.tcp import TransferResult
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.topology.elements import DirectedLink


@dataclass
class FlowRecord:
    """One simulated TCP connection within an epoch.

    The record carries both what the end host can observe (five-tuple,
    retransmission count) and simulator-only ground truth (true path, per-link
    drop counts) used for scoring 007 and the baselines.
    """

    flow_id: int
    epoch: int
    five_tuple: FiveTuple
    src_host: str
    dst_host: str
    path: Path
    result: TransferResult
    kind: str = "data"

    @property
    def has_retransmission(self) -> bool:
        """True when the flow suffered at least one retransmission."""
        return self.result.has_retransmission

    @property
    def retransmissions(self) -> int:
        """Number of retransmissions the sender observed."""
        return self.result.retransmissions

    @property
    def connection_failed(self) -> bool:
        """True when TCP gave up before delivering every packet."""
        return self.result.connection_failed

    def true_drop_link(self) -> Optional[DirectedLink]:
        """Ground truth: the link that dropped the most of this flow's packets."""
        return self.result.dominant_drop_link()
