"""The 007 voting scheme.

A flow that suffers at least one retransmission votes for every link on its
path; each vote is worth ``1/h`` where ``h`` is the number of links on the
path (every link is a priori equally likely to have caused the drop).  Flows
without retransmissions cast no votes (their value is 0, so they need not be
traced at all).  Votes are tallied per epoch.

Votes are counted in whole units of ``1/VOTE_UNITS``: 840 = lcm(1..8) and
no path in a Clos has more than ``MAX_HOPS`` = 8 links, so ``1/h`` is
``840/h`` units.  Integer sums do not depend on the order they are taken in,
so a tally is the same whatever order, partition or chunking its flows
arrive in; votes are divided by 840 only where a report shows them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

from repro.discovery.agent import DiscoveredPath
from repro.topology.elements import DirectedLink

VotePolicy = Literal["inverse_hops", "unit"]

#: one vote in integer units: lcm(1, ..., MAX_HOPS).
VOTE_UNITS = 840

#: the longest path whose ``1/h`` vote is a whole number of units.
MAX_HOPS = 8

#: the one rejection every ingest path gives a path without known links.
EMPTY_PATH = "a voting flow must have at least one known link"


class PathTooLongError(ValueError):
    """A voting path has more than :data:`MAX_HOPS` links: its vote is not
    a whole number of units."""

    def __init__(self, hops: int) -> None:
        super().__init__(f"a voting path has {hops} links; at most {MAX_HOPS} vote")
        self.hops = hops

    def __reduce__(self):
        return PathTooLongError, (self.hops,)


def check_hop_counts(shortest: int, longest: int) -> None:
    """Raise when a path of ``shortest``..``longest`` hops cannot vote."""
    if shortest < 1:
        raise ValueError(EMPTY_PATH)
    if longest > MAX_HOPS:
        raise PathTooLongError(longest)


@dataclass(frozen=True)
class VoteContribution:
    """The votes one flow contributed to the tally."""

    flow_id: int
    links: Tuple[DirectedLink, ...]
    #: the vote each link got, in units of ``1/VOTE_UNITS``.
    units: int
    retransmissions: int = 1

    @property
    def hop_count(self) -> int:
        """Number of links the flow voted for."""
        return len(self.links)


class VoteTally:
    """Accumulates link votes for one epoch.

    Parameters
    ----------
    policy:
        ``"inverse_hops"`` (the paper's scheme, default) gives each link of a
        bad flow ``1/h`` votes; ``"unit"`` gives each link a full vote and is
        provided for the ablation benchmark.

    Votes are kept per link as integer units.  Each contribution has the
    sequence number of its record (default: its row index); a flow traced
    more than once is *bound* to its highest-seq contribution (equal seqs:
    the later), the one count updates bump and attribution reads, whatever
    order the records arrived in.
    """

    def __init__(self, policy: VotePolicy = "inverse_hops") -> None:
        if policy not in ("inverse_hops", "unit"):
            raise ValueError(f"unknown vote policy {policy!r}")
        self._policy: VotePolicy = policy
        self._votes: Dict[DirectedLink, int] = {}
        self._support: Dict[DirectedLink, int] = {}
        self._contributions: List[VoteContribution] = []
        self._seqs: List[int] = []
        self._row_by_flow: Dict[int, int] = {}
        self._items_cache: Optional[List[Tuple[DirectedLink, float]]] = None
        self._rank_cache: Optional[Dict[DirectedLink, int]] = None

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add_flow(
        self,
        flow_id: int,
        links: Sequence[DirectedLink],
        retransmissions: int = 1,
        seq: Optional[int] = None,
    ) -> VoteContribution:
        """Record the votes of one flow that suffered retransmissions."""
        check_hop_counts(len(links), len(links))
        units = VOTE_UNITS if self._policy == "unit" else VOTE_UNITS // len(links)
        contribution = VoteContribution(
            flow_id=flow_id,
            links=tuple(links),
            units=units,
            retransmissions=retransmissions,
        )
        votes = self._votes
        for link in links:
            votes[link] = votes.get(link, 0) + units
        # a link repeated within one path still counts this flow once
        for link in set(links):
            self._support[link] = self._support.get(link, 0) + 1
        row = len(self._contributions)
        seq = row if seq is None else seq
        bound = self._row_by_flow.get(flow_id)
        if bound is None or self._seqs[bound] <= seq:
            self._row_by_flow[flow_id] = row
        self._contributions.append(contribution)
        self._seqs.append(seq)
        self._items_cache = None
        self._rank_cache = None
        return contribution

    def flow_rows(self) -> Dict[int, int]:
        """flow id -> the row it is bound to (live: do not mutate)."""
        return self._row_by_flow

    def row_of_flow(self, flow_id: int) -> Optional[int]:
        """Row index of ``flow_id``'s bound contribution (``None`` if unknown)."""
        return self._row_by_flow.get(flow_id)

    def bump_retransmissions(self, flow_id: int, extra: int) -> None:
        """Add ``extra`` retransmissions to ``flow_id``'s bound contribution.

        The streaming service uses this O(1) update when an already-traced
        flow retransmits again mid-epoch: the flow's path (and therefore its
        votes) is unchanged, only the retransmission count — which noise
        classification reads — grows.  Raises ``KeyError`` for unknown flows.
        """
        self.bump_rows([self._row_by_flow[flow_id]], [extra])

    def bump_rows(self, rows: Sequence[int], extras: Sequence[int]) -> None:
        """Bulk :meth:`bump_retransmissions` by row index.

        Row indices come from :meth:`flow_rows`; state-identical to bumping
        each flow individually.
        """
        contributions = self._contributions
        for row, extra in zip(rows, extras):
            contribution = contributions[row]
            contributions[row] = replace(
                contribution, retransmissions=contribution.retransmissions + extra
            )

    def add_discovered_path(self, path: DiscoveredPath) -> VoteContribution:
        """Record the votes of a flow from its discovered (possibly partial) path."""
        return self.add_flow(
            flow_id=path.flow_id,
            links=path.links,
            retransmissions=path.retransmissions,
        )

    def add_discovered_paths(self, paths: Iterable[DiscoveredPath]) -> None:
        """Record votes for many discovered paths."""
        for path in paths:
            self.add_discovered_path(path)

    def add_flows(
        self, paths: Sequence[DiscoveredPath], seqs: Optional[Sequence[int]] = None
    ) -> None:
        """Record the votes of many flows (``seqs``: one per path)."""
        self.add_columns(
            list(chain.from_iterable(path.links for path in paths)),
            [len(path.links) for path in paths],
            [path.flow_id for path in paths],
            [path.retransmissions for path in paths],
            seqs,
        )

    def add_columns(
        self,
        links: Sequence[DirectedLink],
        lengths: Sequence[int],
        flow_ids: Sequence[int],
        retransmissions: Sequence[int],
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Record the votes of many flows given as columns.

        The twin of :meth:`ArrayVoteTally.add_columns
        <repro.core.arrays.ArrayVoteTally.add_columns>` in this engine's
        terms: ``links`` holds the paths' hops back to back as link objects,
        ``lengths`` the hop count of each path (any integer sequences, numpy
        columns included).  State-identical to one :meth:`add_flow` per path;
        every path is checked before the first one is added.
        """
        lengths = [int(length) for length in lengths]
        check_hop_counts(min(lengths, default=1), max(lengths, default=1))
        if seqs is None:
            seqs = range(self.num_flows, self.num_flows + len(lengths))
        stop = 0
        for flow_id, length, count, seq in zip(flow_ids, lengths, retransmissions, seqs):
            start, stop = stop, stop + length
            self.add_flow(int(flow_id), links[start:stop], int(count), int(seq))

    def record_columns(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[DirectedLink], List[int]]:
        """``(flow_ids, retransmissions, lengths, links, seqs)`` of every row
        — :meth:`add_columns`'s arguments read back (fresh lists)."""
        rows = self._contributions
        return (
            [row.flow_id for row in rows],
            [row.retransmissions for row in rows],
            [len(row.links) for row in rows],
            list(chain.from_iterable(row.links for row in rows)),
            list(self._seqs),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def policy(self) -> VotePolicy:
        """The vote-value policy in use."""
        return self._policy

    def unit_votes(self) -> Dict[DirectedLink, int]:
        """A copy of the tally in units of ``1/VOTE_UNITS``."""
        return dict(self._votes)

    def votes_of(self, link: DirectedLink) -> float:
        """Current vote tally of ``link`` (0 for links never voted for)."""
        return self._votes.get(link, 0) / VOTE_UNITS

    def support_of(self, link: DirectedLink) -> int:
        """Number of distinct flows that voted for ``link`` (O(1) lookup)."""
        return self._support.get(link, 0)

    def support_map(self) -> Dict[DirectedLink, int]:
        """Per-link distinct-flow support as maintained incrementally.

        Equals ``{link: support_of(link)}`` over every voted link.  The map is
        accumulated as flows are added (a link repeated within one path still
        counts its flow once), so materializing it for Algorithm 1's
        eligibility filter costs a dict copy instead of an O(total hops)
        rescan of every contribution.
        """
        return dict(self._support)

    def total_votes(self) -> float:
        """Sum of all votes cast."""
        return sum(self._votes.values()) / VOTE_UNITS

    def links(self) -> List[DirectedLink]:
        """Links with at least one vote, sorted."""
        return sorted(self._votes)

    def items(self) -> List[Tuple[DirectedLink, float]]:
        """``(link, votes)`` pairs sorted by decreasing votes, ties by link order.

        The sorted order is cached until the next :meth:`add_flow`, so ranking
        queries after the tally is complete cost a copy, not a sort.
        """
        if self._items_cache is None:
            self._items_cache = [
                (link, units / VOTE_UNITS)
                for link, units in sorted(
                    self._votes.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ]
        return list(self._items_cache)

    def as_dict(self) -> Dict[DirectedLink, float]:
        """A copy of the tally."""
        return {link: units / VOTE_UNITS for link, units in self._votes.items()}

    @property
    def contributions(self) -> List[VoteContribution]:
        """Per-flow contributions (used by Algorithm 1's adjustment step)."""
        return list(self._contributions)

    @property
    def num_flows(self) -> int:
        """Number of flows that cast votes."""
        return len(self._contributions)

    def top(self, n: int = 1) -> List[Tuple[DirectedLink, float]]:
        """The ``n`` most voted links (none for ``n <= 0``)."""
        return self.items()[:n] if n > 0 else []

    def max_link(self) -> Optional[DirectedLink]:
        """The single most voted link (``None`` when no votes were cast)."""
        items = self.items()
        return items[0][0] if items else None

    def rank_of(self, link: DirectedLink) -> Optional[int]:
        """1-based rank of ``link`` in :meth:`items` (``None`` when unvoted).

        Backed by a position map built once per tally state, so repeated rank
        queries (Figure 13 computes one per trial) do not re-sort the tally.
        """
        if self._rank_cache is None:
            self._rank_cache = {
                candidate: position
                for position, (candidate, _) in enumerate(self.items(), start=1)
            }
        return self._rank_cache.get(link)

    def copy(self) -> "VoteTally":
        """A deep copy of the tally (Algorithm 1 adjusts a copy)."""
        clone = VoteTally(policy=self._policy)
        clone._votes = dict(self._votes)
        clone._support = dict(self._support)
        clone._contributions = list(self._contributions)
        clone._seqs = list(self._seqs)
        clone._row_by_flow = dict(self._row_by_flow)
        return clone

    def snapshot(self) -> "VoteTally":
        """An isolated point-in-time view for mid-epoch reporting.

        The dict tally's :meth:`copy` is already O(flows + links) — votes and
        support are shallow dict copies and contributions are immutable — so
        the snapshot is simply a copy; the method exists so the streaming
        service can take snapshots uniformly across both engines.
        """
        return self.copy()
