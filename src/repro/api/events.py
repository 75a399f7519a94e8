"""Typed evidence events: the wire format of the 007 streaming service.

In production 007 the analysis agent is an *always-on* service: every host's
monitoring agent streams it retransmission evidence as it happens, and the
service must be able to answer "which link is bad right now" at any moment.
This module defines the small, closed vocabulary of events that crosses that
boundary:

* :class:`PathEvidence` — a host discovered the (possibly partial) path of a
  flow that suffered retransmissions.  Carries a per-epoch sequence number
  assigned by the source, so the service can re-establish the original
  discovery order under any delivery chunking, interleaving or reordering —
  which is what makes streamed reports bit-identical to batch analysis.
* :class:`RetransmissionEvidence` — an already-traced flow retransmitted
  again.  The service folds the extra count into the flow's existing
  contribution in O(1) without re-sending the path.
* :class:`EpochTick` — an epoch boundary: the epoch is complete, the service
  may finalize its report and release the epoch's evidence buffers.

Every event is a frozen dataclass with a lossless JSON codec
(:func:`evidence_to_dict` / :func:`evidence_from_dict`), shared by
:class:`~repro.api.checkpoint.Checkpoint` serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Union

from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink


@dataclass(frozen=True)
class PathEvidence:
    """A newly discovered path of a flow with retransmissions.

    ``seq`` is the per-epoch discovery sequence number assigned by the
    evidence source (0, 1, 2, ... in discovery order).  Sequence numbers make
    delivery robust: a flow traced more than once is bound to its highest-seq
    path, so (votes being order-free) any chunking or reordering of the
    stream yields the same report, and duplicate deliveries (at-least-once
    transports) are dropped idempotently.
    """

    epoch: int
    seq: int
    path: DiscoveredPath


@dataclass(frozen=True)
class RetransmissionEvidence:
    """An already-traced flow suffered ``retransmissions`` further events.

    ``seq`` shares the per-epoch sequence space with :class:`PathEvidence`
    when the source assigns one; it gives at-least-once transports duplicate
    suppression for count updates too.  ``None`` (hand-built events) means
    the update is applied unconditionally.
    """

    epoch: int
    flow_id: int
    retransmissions: int = 1
    seq: Optional[int] = None


@dataclass(frozen=True)
class EpochTick:
    """Epoch ``epoch`` has completed; its report may be finalized."""

    epoch: int


Evidence = Union[PathEvidence, RetransmissionEvidence, EpochTick]


# ----------------------------------------------------------------------
# copies
# ----------------------------------------------------------------------
def copy_path(path: DiscoveredPath) -> DiscoveredPath:
    """An independent copy of a discovered path.

    Sources (the monitoring agent's per-epoch cache) mutate their
    ``DiscoveredPath`` objects in place when flows retransmit again; the
    service and any recorder must therefore snapshot at ingest time.
    """
    return replace(path, links=list(path.links))


def copy_evidence(event: Evidence) -> Evidence:
    """A deep-enough copy of an event (paths are snapshotted)."""
    if isinstance(event, PathEvidence):
        return replace(event, path=copy_path(event.path))
    return event


# ----------------------------------------------------------------------
# JSON codec
# ----------------------------------------------------------------------
def link_to_str(link: DirectedLink) -> str:
    """Serialize a directed link as ``"src->dst"``."""
    return f"{link.src}->{link.dst}"


def link_from_str(text: str) -> DirectedLink:
    """Parse a ``"src->dst"`` directed link."""
    src, sep, dst = text.partition("->")
    if not sep or not src or not dst:
        raise ValueError(f"not a directed link: {text!r}")
    return DirectedLink(src, dst)


def five_tuple_to_list(ft: FiveTuple) -> list:
    """Serialize a five-tuple as a 5-element JSON list."""
    return [ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port, ft.protocol]


def five_tuple_from_list(values: list) -> FiveTuple:
    """Parse a five-tuple from its 5-element JSON list."""
    src_ip, dst_ip, src_port, dst_port, protocol = values
    return FiveTuple(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=int(src_port),
        dst_port=int(dst_port),
        protocol=int(protocol),
    )


def path_to_dict(path: DiscoveredPath) -> Dict[str, Any]:
    """Serialize a discovered path losslessly to JSON-ready primitives."""
    return {
        "flow_id": path.flow_id,
        "five_tuple": five_tuple_to_list(path.five_tuple),
        "src_host": path.src_host,
        "dst_host": path.dst_host,
        "links": [link_to_str(link) for link in path.links],
        "complete": path.complete,
        "retransmissions": path.retransmissions,
        "epoch": path.epoch,
    }


def path_from_dict(data: Dict[str, Any]) -> DiscoveredPath:
    """Rebuild a discovered path from :func:`path_to_dict` output."""
    return DiscoveredPath(
        flow_id=int(data["flow_id"]),
        five_tuple=five_tuple_from_list(data["five_tuple"]),
        src_host=data["src_host"],
        dst_host=data["dst_host"],
        links=[link_from_str(text) for text in data["links"]],
        complete=bool(data["complete"]),
        retransmissions=int(data["retransmissions"]),
        epoch=int(data["epoch"]),
    )


def evidence_to_dict(event: Evidence) -> Dict[str, Any]:
    """Serialize any evidence event with a ``"kind"`` discriminator."""
    if isinstance(event, PathEvidence):
        return {
            "kind": "path",
            "epoch": event.epoch,
            "seq": event.seq,
            "path": path_to_dict(event.path),
        }
    if isinstance(event, RetransmissionEvidence):
        return {
            "kind": "retransmission",
            "epoch": event.epoch,
            "flow_id": event.flow_id,
            "retransmissions": event.retransmissions,
            "seq": event.seq,
        }
    if isinstance(event, EpochTick):
        return {"kind": "tick", "epoch": event.epoch}
    raise TypeError(f"not an evidence event: {event!r}")


def evidence_from_dict(data: Dict[str, Any]) -> Evidence:
    """Rebuild an evidence event from :func:`evidence_to_dict` output."""
    kind = data.get("kind")
    if kind == "path":
        return PathEvidence(
            epoch=int(data["epoch"]),
            seq=int(data["seq"]),
            path=path_from_dict(data["path"]),
        )
    if kind == "retransmission":
        seq = data.get("seq")
        return RetransmissionEvidence(
            epoch=int(data["epoch"]),
            flow_id=int(data["flow_id"]),
            retransmissions=int(data["retransmissions"]),
            seq=None if seq is None else int(seq),
        )
    if kind == "tick":
        return EpochTick(epoch=int(data["epoch"]))
    raise ValueError(f"unknown evidence kind {kind!r}")
