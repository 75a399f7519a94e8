"""The 007 voting scheme.

A flow that suffers at least one retransmission votes for every link on its
path; each vote is worth ``1/h`` where ``h`` is the number of links on the
path (every link is a priori equally likely to have caused the drop).  Flows
without retransmissions cast no votes (their value is 0, so they need not be
traced at all).  Votes are tallied per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, Iterable, List, Literal, Optional, Sequence, Tuple

from repro.discovery.agent import DiscoveredPath
from repro.topology.elements import DirectedLink

VotePolicy = Literal["inverse_hops", "unit"]

#: the one rejection every ingest path gives a path without known links.
EMPTY_PATH = "a voting flow must have at least one known link"


@dataclass(frozen=True)
class VoteContribution:
    """The votes one flow contributed to the tally."""

    flow_id: int
    links: Tuple[DirectedLink, ...]
    weight: float
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
    """

    def __init__(self, policy: VotePolicy = "inverse_hops") -> None:
        if policy not in ("inverse_hops", "unit"):
            raise ValueError(f"unknown vote policy {policy!r}")
        self._policy: VotePolicy = policy
        self._votes: Dict[DirectedLink, float] = {}
        self._support: Dict[DirectedLink, int] = {}
        self._contributions: List[VoteContribution] = []
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
    ) -> VoteContribution:
        """Record the votes of one flow that suffered retransmissions."""
        if not links:
            raise ValueError(EMPTY_PATH)
        weight = 1.0 if self._policy == "unit" else 1.0 / len(links)
        contribution = VoteContribution(
            flow_id=flow_id,
            links=tuple(links),
            weight=weight,
            retransmissions=retransmissions,
        )
        for link in links:
            self._votes[link] = self._votes.get(link, 0.0) + weight
        # a link repeated within one path still counts this flow once
        for link in set(links):
            self._support[link] = self._support.get(link, 0) + 1
        self._row_by_flow[flow_id] = len(self._contributions)
        self._contributions.append(contribution)
        self._items_cache = None
        self._rank_cache = None
        return contribution

    def row_of_flow(self, flow_id: int) -> Optional[int]:
        """Row index of ``flow_id``'s latest contribution (``None`` if unknown)."""
        return self._row_by_flow.get(flow_id)

    def bump_retransmissions(self, flow_id: int, extra: int) -> None:
        """Add ``extra`` retransmissions to ``flow_id``'s latest contribution.

        The streaming service uses this O(1) update when an already-traced
        flow retransmits again mid-epoch: the flow's path (and therefore its
        votes) is unchanged, only the retransmission count — which noise
        classification reads — grows.  Raises ``KeyError`` for unknown flows.
        """
        row = self._row_by_flow[flow_id]
        contribution = self._contributions[row]
        self._contributions[row] = replace(
            contribution, retransmissions=contribution.retransmissions + extra
        )

    def bump_rows(self, rows: Sequence[int], extras: Sequence[int]) -> None:
        """Bulk :meth:`bump_retransmissions` by row index.

        Row indices come from :meth:`row_of_flow`; state-identical to bumping
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

    def add_flows(self, paths: Sequence[DiscoveredPath]) -> None:
        """Record the votes of many flows in one pass (the streaming bulk path).

        State-identical to calling :meth:`add_flow` per path in list order —
        votes are folded in the same traversal order, so every float matches —
        but with the per-call dispatch and cache-invalidation overhead paid
        once per batch instead of once per flow.
        """
        unit = self._policy == "unit"
        votes = self._votes
        votes_get = votes.get
        support = self._support
        support_get = support.get
        contributions = self._contributions
        row_by_flow = self._row_by_flow
        row = len(contributions)
        for path in paths:
            links = path.links
            if not links:
                raise ValueError(EMPTY_PATH)
            weight = 1.0 if unit else 1.0 / len(links)
            for link in links:
                votes[link] = votes_get(link, 0.0) + weight
            for link in set(links):
                support[link] = support_get(link, 0) + 1
            row_by_flow[path.flow_id] = row
            contributions.append(
                VoteContribution(
                    flow_id=path.flow_id,
                    links=tuple(links),
                    weight=weight,
                    retransmissions=path.retransmissions,
                )
            )
            row += 1
        self._items_cache = None
        self._rank_cache = None

    def add_columns(
        self,
        links: Sequence[DirectedLink],
        lengths: Sequence[int],
        flow_ids: Sequence[int],
        retransmissions: Sequence[int],
    ) -> None:
        """Record the votes of many flows given as columns.

        The twin of :meth:`ArrayVoteTally.add_columns
        <repro.core.arrays.ArrayVoteTally.add_columns>` in this engine's
        terms: ``links`` holds the paths' hops back to back as link objects,
        ``lengths`` the hop count of each path (any integer sequences, numpy
        columns included).  State-identical to one :meth:`add_flow` per path.
        """
        stop = 0
        for flow_id, length, count in zip(flow_ids, lengths, retransmissions):
            start, stop = stop, stop + int(length)
            self.add_flow(int(flow_id), links[start:stop], int(count))

    def record_columns(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[DirectedLink]]:
        """``(flow_ids, retransmissions, lengths, links)`` of every row —
        :meth:`add_columns`'s arguments read back (fresh lists)."""
        rows = self._contributions
        return (
            [row.flow_id for row in rows],
            [row.retransmissions for row in rows],
            [len(row.links) for row in rows],
            list(chain.from_iterable(row.links for row in rows)),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def policy(self) -> VotePolicy:
        """The vote-value policy in use."""
        return self._policy

    def votes_of(self, link: DirectedLink) -> float:
        """Current vote tally of ``link`` (0 for links never voted for)."""
        return self._votes.get(link, 0.0)

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
        return float(sum(self._votes.values()))

    def links(self) -> List[DirectedLink]:
        """Links with at least one vote, sorted."""
        return sorted(self._votes)

    def items(self) -> List[Tuple[DirectedLink, float]]:
        """``(link, votes)`` pairs sorted by decreasing votes, ties by link order.

        The sorted order is cached until the next :meth:`add_flow`, so ranking
        queries after the tally is complete cost a copy, not a sort.
        """
        if self._items_cache is None:
            self._items_cache = sorted(
                self._votes.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return list(self._items_cache)

    def as_dict(self) -> Dict[DirectedLink, float]:
        """A copy of the tally."""
        return dict(self._votes)

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
        clone._row_by_flow = dict(self._row_by_flow)
        return clone

    def reordered(self, order: Sequence[int]) -> "VoteTally":
        """A fresh tally holding this tally's contributions in the order ``order``.

        ``order`` is a permutation of the row indices.  Votes and support are
        re-folded from the contributions in that order — state-identical to a
        new tally fed the same flows that way — while every flow stays bound
        to the *same contribution* as here: the flow -> row map is carried
        through the permutation, not re-derived from the new row order.
        """
        clone = VoteTally(policy=self._policy)
        new_row = {}
        for row in order:
            contribution = self._contributions[row]
            new_row[row] = len(new_row)
            clone.add_flow(
                contribution.flow_id, contribution.links, contribution.retransmissions
            )
        clone._row_by_flow = {
            flow: new_row[row] for flow, row in self._row_by_flow.items()
        }
        return clone

    def snapshot(self) -> "VoteTally":
        """An isolated point-in-time view for mid-epoch reporting.

        The dict tally's :meth:`copy` is already O(flows + links) — votes and
        support are shallow dict copies and contributions are immutable — so
        the snapshot is simply a copy; the method exists so the streaming
        service can take snapshots uniformly across both engines.
        """
        return self.copy()
