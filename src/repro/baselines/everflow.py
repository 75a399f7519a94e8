"""Everflow-like ground-truth packet capture.

Everflow mirrors tagged packets at every switch, so for a captured flow the
exact drop location is known.  It is far too expensive to run always-on —
which is 007's raison d'être — but the paper uses it as ground truth in the
Section 7/8 validations.  Here the "capture" simply exposes the simulator's
ground-truth drop bookkeeping through an Everflow-shaped API, restricted to
the hosts it was enabled on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.netsim.flows import FlowRecord
from repro.routing.paths import Path
from repro.topology.elements import DirectedLink


class EverflowCapture:
    """Ground-truth capture over a subset of hosts.

    Parameters
    ----------
    enabled_hosts:
        Hosts whose outgoing traffic is captured; ``None`` captures everything
        (used when the capture serves as the simulator-wide oracle).
    """

    def __init__(self, enabled_hosts: Optional[Iterable[str]] = None) -> None:
        self._enabled: Optional[Set[str]] = (
            set(enabled_hosts) if enabled_hosts is not None else None
        )
        self._drop_links: Dict[int, Optional[DirectedLink]] = {}
        self._paths: Dict[int, Path] = {}

    # ------------------------------------------------------------------
    def capture_epoch(self, flows: Iterable[FlowRecord]) -> None:
        """Ingest the flows of one epoch (only those from enabled hosts)."""
        for flow in flows:
            if self._enabled is not None and flow.src_host not in self._enabled:
                continue
            self._paths[flow.flow_id] = flow.path
            self._drop_links[flow.flow_id] = flow.true_drop_link()

    # ------------------------------------------------------------------
    def is_captured(self, flow_id: int) -> bool:
        """True when the flow's packets were captured."""
        return flow_id in self._paths

    def drop_link_of(self, flow_id: int) -> Optional[DirectedLink]:
        """The link where the flow's packets were dropped (``None`` = no drop)."""
        return self._drop_links.get(flow_id)

    def path_of(self, flow_id: int) -> Optional[Path]:
        """The exact path of a captured flow."""
        return self._paths.get(flow_id)

    def flows_with_drops(self) -> List[int]:
        """IDs of captured flows that lost at least one packet."""
        return sorted(
            flow_id for flow_id, link in self._drop_links.items() if link is not None
        )
