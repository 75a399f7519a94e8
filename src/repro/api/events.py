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

Every event is a frozen dataclass; the binary forms that carry them are the
wire format (:mod:`repro.api.wire`) and the checkpoint container
(:mod:`repro.api.checkpoint`), whose link tables both spell links
``"src->dst"`` (:func:`links_to_str` / :func:`link_from_str`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from repro.discovery.agent import DiscoveredPath
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
# a directed link as text (the checkpoint header's and the wire's link tables)
# ----------------------------------------------------------------------
def links_to_str(links: Sequence[DirectedLink]) -> List[str]:
    """Serialize directed links as ``"src->dst"`` texts.

    Raises ``ValueError`` naming the first link with an endpoint that holds
    ``->`` or is empty: its text would load as another link, or as none.
    One pass over the joined texts checks them all — a text holds exactly
    one ``->`` unless an endpoint holds one — and only a table that fails it
    is checked link by link.
    """
    texts = [f"{link.src}->{link.dst}" for link in links]
    joined = "\x00" + "\x00".join(texts) + "\x00"
    if joined.count("->") != len(texts) or "\x00->" in joined or "->\x00" in joined:
        for src, dst in links:
            if not src or not dst or "->" in src or "->" in dst:
                raise ValueError(
                    f"link {DirectedLink(src, dst)!r} cannot be written as "
                    "'src->dst': an endpoint is empty or holds '->'"
                )
    return texts


def link_from_str(text: str) -> DirectedLink:
    """Parse a ``"src->dst"`` directed link."""
    src, sep, dst = text.partition("->")
    if not sep or not src or not dst:
        raise ValueError(f"not a directed link: {text!r}")
    return DirectedLink(src, dst)
