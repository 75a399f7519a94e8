"""NumPy-backed analysis engine: interned links, CSR path matrices, array Algorithm 1.

The dict-based reference engine (:mod:`repro.core.votes`, :mod:`repro.core.blame`)
keys every tally on :class:`~repro.topology.elements.DirectedLink` objects and
re-scans the per-flow ``VoteContribution`` lists inside Algorithm 1, which makes
the per-epoch analysis the dominant cost at large fabric sizes.  This module is
its vectorized twin:

* :class:`ItemIndex` / :class:`LinkIndex` intern hashable items (links, switch
  names) to dense integer ids so per-link state lives in flat arrays;
* :class:`ArrayVoteTally` stores an epoch's discovered paths as a CSR matrix
  (``indptr``/``cols``, one row per flow) in one set of grown numpy buffers
  and folds the vote tally *and* the per-link distinct-flow support
  incrementally over the rows appended since the last query;
* :func:`find_problematic_links_arrays` runs Algorithm 1 as argmax + one
  ``numpy.subtract.at`` over the hit rows' hops per detection instead of
  re-scanning contribution lists;
* helpers vectorize ranking, per-flow culprit attribution and noise
  classification over the same matrix.

Both engines count votes in integer units of ``1/VOTE_UNITS``
(:mod:`repro.core.votes`), which float64 holds exactly: a fold is one
``bincount`` whose result does not depend on the order, partition or
chunking of the rows, Algorithm 1 compares units with the threshold, and
votes are divided by ``VOTE_UNITS`` only where a report shows them.  Ties
break on the same lexicographic link ordering in both engines, so they
produce identical detections, rankings, flow causes and thresholds, and the
dict engine remains the reference oracle in the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blame import BlameConfig, BlameResult
from repro.core.noise import NoiseClassification
from repro.core.votes import (
    MAX_HOPS,
    VOTE_UNITS,
    VoteContribution,
    VotePolicy,
    check_hop_counts,
)
from repro.discovery.agent import DiscoveredPath
from repro.topology.elements import DirectedLink


class ItemIndex:
    """Interns hashable, orderable items to dense integer ids.

    Ids are assigned in first-intern order; :meth:`sort_ranks` provides the
    rank of each id under the items' natural ordering, which the blame kernel
    uses for the deterministic "smallest item wins" tie-break.  The one
    interner of the code base: link tables, name tables, host routing.
    """

    def __init__(self, items: Iterable = ()) -> None:
        #: table positions are kept as given (a checkpoint's tables are
        #: adopted position for position).
        self._items: List = list(items)
        self._ids: Dict[object, int] = dict(zip(self._items, range(len(self._items))))
        self._ranks: Optional[np.ndarray] = None
        self._names: List[str] = []

    # ------------------------------------------------------------------
    def intern(self, item) -> int:
        """Return the id of ``item``, assigning the next free id if new."""
        idx = self._ids.get(item)
        if idx is None:
            idx = len(self._items)
            self._ids[item] = idx
            self._items.append(item)
        return idx

    def id_of(self, item) -> int:
        """The id of an already-interned item (raises ``KeyError`` if unknown)."""
        return self._ids[item]

    def fast_ids(self, items: Sequence, dtype=np.int64) -> np.ndarray:
        """Intern many items: ``[self.intern(x) for x in items]`` as an array.

        One C-level pass of dict lookups; only a batch holding a never-seen
        item takes the interning pass (new items join in first-occurrence
        order) and is looked up again.  Equal items resolve alike whether or
        not they are the same object.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        lookup = self._ids.__getitem__
        try:
            return np.fromiter(map(lookup, items), dtype=dtype, count=len(items))
        except KeyError:  # a never-seen item: intern the new ones, look up again
            known = len(self._items)
            fresh = [item for item in dict.fromkeys(items) if item not in self._ids]
            self._ids.update(zip(fresh, range(known, known + len(fresh))))
            self._items.extend(fresh)
            return np.fromiter(map(lookup, items), dtype=dtype, count=len(items))

    def get(self, item) -> Optional[int]:
        """The id of ``item`` or ``None`` when it was never interned."""
        return self._ids.get(item)

    def item_of(self, idx: int):
        """The item with id ``idx``."""
        return self._items[idx]

    @property
    def items(self) -> List:
        """All interned items in id order (live list — do not mutate)."""
        return self._items

    def names(self) -> List[str]:
        """``str(item)`` per id, computed once per item (live list — do not
        mutate).  Grown by replacement, never in place: a reader on another
        thread than the one interning always holds a complete list."""
        names = self._names
        if len(names) < len(self._items):
            names = self._names = names + list(map(str, self._items[len(names) :]))
        return names

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item) -> bool:
        return item in self._ids

    def sort_ranks(self) -> np.ndarray:
        """``ranks[id]`` = position of the item in the sorted item order."""
        if self._ranks is None or len(self._ranks) != len(self._items):
            count = len(self._items)
            ranks = np.empty(count, dtype=np.int64)
            ranks[sorted(range(count), key=self._items.__getitem__)] = np.arange(count)
            self._ranks = ranks
        return self._ranks


class LinkIndex(ItemIndex):
    """An :class:`ItemIndex` specialised to :class:`DirectedLink` objects."""

    @classmethod
    def from_topology(cls, topology) -> "LinkIndex":
        """Pre-populate the index with every directed link of a topology.

        Links are interned in sorted order so ids coincide with sort ranks.
        """
        return cls(sorted(topology.directed_links()))

    def link_of(self, idx: int) -> DirectedLink:
        """The link with id ``idx``."""
        return self._items[idx]

    def hop_ids(
        self, links_list: Sequence[Sequence[DirectedLink]], hops: int
    ) -> np.ndarray:
        """Ids of the ``hops`` links of many paths, back to back.

        One dict lookup per hop streaming straight off ``chain`` — no
        intermediate hop list unless a link has to be interned first.
        """
        try:
            return np.fromiter(
                map(self._ids.__getitem__, chain.from_iterable(links_list)),
                dtype=np.int64,
                count=hops,
            )
        except KeyError:
            return self.fast_ids(list(chain.from_iterable(links_list)))

    @property
    def links(self) -> List[DirectedLink]:
        """All interned links in id order (live list — do not mutate)."""
        return self._items


#: ``[h]``: the vote per link of an ``h``-hop path, in units (index 0 unused).
_UNITS_BY_HOPS = np.array(
    [0.0] + [float(VOTE_UNITS // hops) for hops in range(1, MAX_HOPS + 1)]
)


def _link_table(labels: Sequence, ids: np.ndarray, values: np.ndarray):
    """``(labels[id], value)`` pairs through C-level iterators: no Python-level
    call per link.  ``labels`` is an index's ``items`` or ``names()``."""
    return zip(map(labels.__getitem__, ids.tolist()), values.tolist())


def _grown(buf: np.ndarray, used: int, need: int, slack: int = 0) -> np.ndarray:
    """A reallocated copy of ``buf[:used]`` with geometrically grown capacity.

    Growth reallocates instead of resizing in place, so array views handed out
    by earlier snapshots keep the old buffer alive and never observe the new
    writes; within one buffer, appends only touch ``buf[used:]``.
    """
    grown = np.empty(max(need, 2 * len(buf), 1024) + slack, dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class ArrayVoteTally:
    """A drop-in, array-backed replacement for :class:`~repro.core.votes.VoteTally`.

    Paths are stored as a CSR matrix over a :class:`LinkIndex`, in one set of
    geometrically grown numpy buffers that every entry point writes directly:
    ``cols`` holds the interned link ids of every path back to back,
    ``indptr`` delimits the rows (flows), ``flow_ids``/``retransmissions``/
    ``seqs`` hold each row's bookkeeping (a row's vote follows from its
    length).  The vote tally and the per-link distinct-flow support are an
    incrementally maintained materialized view: each query folds only the
    rows appended since the last query into running accumulators, with one
    ``bincount`` of integer vote units — exact, however the rows were cut
    into folds, ordered or split between tallies (:meth:`extend`).
    Mid-epoch queries therefore cost O(rows touched since the last query),
    not O(epoch).  Flows are bound as in :class:`~repro.core.votes.VoteTally`.
    """

    def __init__(
        self,
        policy: VotePolicy = "inverse_hops",
        index: Optional[LinkIndex] = None,
    ) -> None:
        if policy not in ("inverse_hops", "unit"):
            raise ValueError(f"unknown vote policy {policy!r}")
        self._policy: VotePolicy = policy
        self._index = index if index is not None else LinkIndex()
        # The CSR buffers; ``_rows``/``_hops`` are the used lengths, and
        # ``_indptr`` always has room for one more entry than the row buffers.
        self._rows = 0
        self._hops = 0
        self._cols = np.empty(0, dtype=np.int64)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._flow_ids = np.empty(0, dtype=np.int64)
        self._retransmissions = np.empty(0, dtype=np.int64)
        self._seqs = np.empty(0, dtype=np.int64)
        #: flow id -> bound row over the first ``_mapped`` rows (highest seq
        #: ``_top_seq``); the rest is caught up when next asked for (a
        #: snapshot starts from none).
        self._row_by_flow: Dict[int, int] = {}
        self._mapped = 0
        self._top_seq = -1
        # The materialized view: running vote/support accumulators holding
        # the first ``_folded_rows`` rows.
        self._folded_rows = 0
        self._votes = np.zeros(0, dtype=np.float64)
        self._support = np.zeros(0, dtype=np.int64)
        self._invalidate()

    def _invalidate(self) -> None:
        # Drops only the derived caches; the buffers, accumulators and the
        # fold watermark survive — that is the point.
        self._items_cache: Optional[List[Tuple[DirectedLink, float]]] = None
        self._rank_cache: Optional[Dict[DirectedLink, int]] = None
        self._contributions_cache: Optional[List[VoteContribution]] = None

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def _reserve(self, rows: int, hops: int) -> None:
        """Make room for ``rows`` rows and ``hops`` hops in total."""
        if hops > len(self._cols):
            self._cols = _grown(self._cols, self._hops, hops)
        if rows > len(self._flow_ids):
            used = self._rows
            self._indptr = _grown(self._indptr, used + 1, rows, slack=1)
            self._flow_ids = _grown(self._flow_ids, used, rows)
            self._retransmissions = _grown(self._retransmissions, used, rows)
            self._seqs = _grown(self._seqs, used, rows)

    def _units(self, lengths: np.ndarray) -> np.ndarray:
        """Each row's vote per link in units (float64), from its hop count."""
        if self._policy == "unit":
            return np.full(len(lengths), float(VOTE_UNITS))
        return _UNITS_BY_HOPS[lengths]

    def add_flow(
        self,
        flow_id: int,
        links: Sequence[DirectedLink],
        retransmissions: int = 1,
        seq: Optional[int] = None,
    ) -> VoteContribution:
        """Record the votes of one flow that suffered retransmissions
        (``seq``: the record's sequence number, default its row index)."""
        check_hop_counts(len(links), len(links))
        row, start = self._rows, self._hops
        stop = start + len(links)
        if stop > len(self._cols) or row >= len(self._flow_ids):
            self._reserve(row + 1, stop)
        self._cols[start:stop] = list(map(self._index.intern, links))
        self._indptr[row + 1] = stop
        self._flow_ids[row] = flow_id
        self._retransmissions[row] = retransmissions
        self._seqs[row] = row if seq is None else seq
        self._rows = row + 1
        self._hops = stop
        self._invalidate()
        return VoteContribution(
            flow_id=flow_id,
            links=tuple(links),
            units=VOTE_UNITS if self._policy == "unit" else VOTE_UNITS // len(links),
            retransmissions=retransmissions,
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
        """Record the votes of many flows in one pass (the streaming bulk path).

        State-identical to calling :meth:`add_flow` per path (``seqs``: one
        per path) in list order, but the per-call overhead (contribution
        objects, cache invalidation, interner dispatch) is paid once per
        batch; links cost one dict lookup per hop (:meth:`LinkIndex.hop_ids`).
        """
        if not isinstance(paths, list):
            paths = list(paths)
        if not paths:
            return
        # Column-wise extraction: every per-path field is pulled through
        # C-level iterators (map/attrgetter/chain), no Python-level loop.
        links_list = [path.links for path in paths]
        lengths = np.fromiter(map(len, links_list), dtype=np.int64, count=len(paths))
        check_hop_counts(int(lengths.min()), int(lengths.max()))  # before interning
        lids = self._index.hop_ids(links_list, int(lengths.sum()))
        self.add_columns(
            lids,
            lengths,
            [path.flow_id for path in paths],
            [path.retransmissions for path in paths],
            seqs,
        )

    def add_columns(
        self,
        link_ids: Sequence[int],
        lengths: Sequence[int],
        flow_ids: Sequence[int],
        retransmissions: Sequence[int],
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Record the votes of many flows given as columns (bulk arrays).

        ``link_ids`` holds the paths' hops back to back as ids already
        interned in this tally's :class:`LinkIndex`, ``lengths`` the hop
        count of each path, ``flow_ids``/``retransmissions``/``seqs`` one
        entry per path (``seqs`` defaults to the row indices).
        State-identical to :meth:`add_flows` over the same paths — the entry
        point for callers that never build path objects (the coordinator's
        column store, the columnar fleet core, a restore).  Raises
        ``ValueError`` before mutating anything when a path is empty or too
        long, the columns disagree in length or an id is not in the index.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        count = len(lengths)
        if not count:
            return
        cols = np.asarray(link_ids, dtype=np.int64)
        check_hop_counts(int(lengths.min()), int(lengths.max()))
        if (
            int(lengths.sum()) != len(cols)
            or len(flow_ids) != count
            or len(retransmissions) != count
            or (seqs is not None and len(seqs) != count)
        ):
            raise ValueError("path columns disagree in length")
        if int(cols.min()) < 0 or int(cols.max()) >= len(self._index):
            raise ValueError("link id outside the tally's index")
        row, start = self._rows, self._hops
        rows, hops = row + count, start + len(cols)
        self._reserve(rows, hops)
        self._cols[start:hops] = cols
        np.cumsum(lengths, out=self._indptr[row + 1 : rows + 1])
        self._indptr[row + 1 : rows + 1] += start
        self._flow_ids[row:rows] = flow_ids
        self._retransmissions[row:rows] = retransmissions
        self._seqs[row:rows] = np.arange(row, rows) if seqs is None else seqs
        self._rows, self._hops = rows, hops
        self._invalidate()

    def flow_rows(self) -> Dict[int, int]:
        """flow id -> its bound row, caught up with the rows appended since
        it was last asked for (live: do not mutate)."""
        mapped, rows = self._mapped, self._rows
        if mapped < rows:
            bound, seqs = self._row_by_flow, self._seqs
            # Python lists: most catch-ups are one row (a per-event update)
            new = seqs[mapped:rows].tolist()
            if new[0] >= self._top_seq and new == sorted(new):
                # every new row outranks the rows before it: the later wins
                flows, order = self._flow_ids[mapped:rows], range(mapped, rows)
            else:  # in seq order, each row that outranks its flow's bound row
                order = np.argsort(seqs[mapped:rows], kind="stable") + mapped
                prior = np.fromiter(
                    map(bound.get, self._flow_ids[order].tolist(), repeat(-1)),
                    dtype=np.int64,
                    count=len(order),
                )
                order = order[(prior < 0) | (seqs[prior] <= seqs[order])]
                flows, order = self._flow_ids[order], order.tolist()
            bound.update(zip(flows.tolist(), order))
            self._top_seq = max(self._top_seq, max(new))
            self._mapped = rows
        return self._row_by_flow

    def row_of_flow(self, flow_id: int) -> Optional[int]:
        """Row index of ``flow_id``'s bound row (``None`` if unknown)."""
        return self.flow_rows().get(flow_id)

    def bump_rows(self, rows: Sequence[int], extras: Sequence[int]) -> None:
        """Bulk :meth:`bump_retransmissions` by row index.

        One cache invalidation for the whole batch instead of one per flow;
        row indices come from :meth:`flow_rows`.
        """
        if len(rows):
            np.add.at(self._retransmissions, rows, extras)
        self._contributions_cache = None

    def bump_retransmissions(self, flow_id: int, extra: int) -> None:
        """Add ``extra`` retransmissions to ``flow_id``'s bound row.

        O(1): votes are untouched (the flow's path is unchanged), so only the
        rebuilt-on-demand contribution view is invalidated, not the fold.
        Raises ``KeyError`` for unknown flows.
        """
        self._retransmissions[self.flow_rows()[flow_id]] += extra
        self._contributions_cache = None

    # ------------------------------------------------------------------
    # array views
    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Advance the vote/support accumulators over the unfolded rows."""
        n = len(self._index)
        if len(self._votes) < n:
            # the shared interner grew (new links voted, here or by sibling
            # epochs); new ids carry zero votes/support until folded.
            self._votes = np.concatenate(
                [self._votes, np.zeros(n - len(self._votes))]
            )
            self._support = np.concatenate(
                [self._support, np.zeros(n - len(self._support), dtype=np.int64)]
            )
        lo, hi = self._folded_rows, self._rows
        if hi == lo:
            return
        bounds = self._indptr[lo : hi + 1]
        tail_cols = self._cols[bounds[0] : bounds[-1]]
        lengths = np.diff(bounds)
        # Integer units: exact in float64, so the sum is the same whatever
        # the order of the rows or the folds they were cut into.
        self._votes += np.bincount(
            tail_cols, weights=np.repeat(self._units(lengths), lengths), minlength=n
        )
        # Support counts the distinct (row, link) pairs of the tail rows
        # (each row's hops are folded exactly once, so pairs never repeat
        # across folds).  No sort: a hop repeats an earlier hop of its own
        # row iff it equals the hop ``s`` places back and that hop is not
        # before the row's start, for some ``s`` below the longest row (at
        # most ``MAX_HOPS``).
        row_start = np.repeat(bounds[:-1] - bounds[0], lengths)
        repeats = []
        for s in range(1, int(lengths.max())):
            later = np.flatnonzero(tail_cols[s:] == tail_cols[:-s]) + s
            repeats.append(later[row_start[later] <= later - s])
        if any(map(len, repeats)):  # looped paths: rare
            once = np.ones(len(tail_cols), dtype=bool)
            once[np.concatenate(repeats)] = False
            tail_cols = tail_cols[once]
        self._support += np.bincount(tail_cols, minlength=n)
        self._folded_rows = hi

    @property
    def index(self) -> LinkIndex:
        """The link interner backing this tally."""
        return self._index

    def votes_array(self) -> np.ndarray:
        """Votes per link id in units of ``1/VOTE_UNITS`` (float64 holding
        integers; length = size of the index at fold time)."""
        self._fold()
        return self._votes

    def support_array(self) -> np.ndarray:
        """Distinct voting flows per link id."""
        self._fold()
        return self._support

    def path_matrix(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR rows: ``(indptr, cols, units)``, ``units`` each row's vote
        per link (computed afresh)."""
        indptr, cols = _csr(self)
        return indptr, cols, self._units(np.diff(indptr))

    def voted_ids(self) -> np.ndarray:
        """Ids of links with at least one vote, ascending."""
        return np.flatnonzero(self.support_array())

    def flow_ids_array(self) -> np.ndarray:
        """Flow ids per row (a view of the buffer)."""
        return self._flow_ids[: self._rows]

    def retransmissions_array(self) -> np.ndarray:
        """Retransmission counts per row (a view of the buffer)."""
        return self._retransmissions[: self._rows]

    def seqs_array(self) -> np.ndarray:
        """Sequence numbers per row (a view of the buffer)."""
        return self._seqs[: self._rows]

    def record_columns(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(flow_ids, retransmissions, lengths, link_ids, seqs)`` of every
        row — :meth:`add_columns`'s arguments read back, ``link_ids`` in this
        tally's index.  Views of the live buffers (only ``lengths`` is
        fresh): copy what must outlive the next write to the tally.
        """
        indptr, cols = _csr(self)
        return (
            self.flow_ids_array(),
            self.retransmissions_array(),
            np.diff(indptr),
            cols,
            self.seqs_array(),
        )

    # ------------------------------------------------------------------
    # queries (the VoteTally API)
    # ------------------------------------------------------------------
    @property
    def policy(self) -> VotePolicy:
        """The vote-value policy in use."""
        return self._policy

    def votes_of(self, link: DirectedLink) -> float:
        """Current vote tally of ``link`` (0 for links never voted for)."""
        lid = self._index.get(link)
        return 0.0 if lid is None else float(self.votes_array()[lid]) / VOTE_UNITS

    def support_of(self, link: DirectedLink) -> int:
        """Number of distinct flows that voted for ``link``."""
        lid = self._index.get(link)
        return 0 if lid is None else int(self.support_array()[lid])

    def total_votes(self) -> float:
        """Sum of all votes cast."""
        return float(self.votes_array().sum()) / VOTE_UNITS

    def links(self) -> List[DirectedLink]:
        """Links with at least one vote, sorted."""
        return sorted(map(self._index.items.__getitem__, self.voted_ids().tolist()))

    def items(self) -> List[Tuple[DirectedLink, float]]:
        """``(link, votes)`` pairs sorted by decreasing votes, ties by link order.

        Ordered by one ``lexsort`` over ``(-votes, sort rank)`` instead of a
        Python tuple sort: the rank array is the links' natural order, so the
        result is the exact list ``sorted(pairs, key=(-votes, link))`` builds,
        without constructing and comparing O(links) tuples.
        """
        if self._items_cache is None:
            ids = self.voted_ids()
            votes = self.votes_array()[ids]
            order = np.lexsort((self._index.sort_ranks()[ids], -votes))
            self._items_cache = list(
                _link_table(self._index.items, ids[order], votes[order] / VOTE_UNITS)
            )
        return list(self._items_cache)

    def as_dict(self) -> Dict[DirectedLink, float]:
        """A copy of the tally, keyed by link in id order."""
        ids = self.voted_ids()
        votes = self.votes_array()[ids] / VOTE_UNITS
        return dict(_link_table(self._index.items, ids, votes))

    @property
    def contributions(self) -> List[VoteContribution]:
        """Per-flow contributions, rebuilt from the CSR rows on demand."""
        if self._contributions_cache is None:
            indptr, cols, units = self.path_matrix()
            bounds = indptr.tolist()
            hops = list(map(self._index.items.__getitem__, cols.tolist()))
            self._contributions_cache = [
                VoteContribution(
                    flow_id=flow_id,
                    links=tuple(hops[start:stop]),
                    units=row_units,
                    retransmissions=retransmissions,
                )
                for flow_id, start, stop, row_units, retransmissions in zip(
                    self.flow_ids_array().tolist(),
                    bounds,
                    bounds[1:],
                    units.astype(np.int64).tolist(),
                    self.retransmissions_array().tolist(),
                )
            ]
        return list(self._contributions_cache)

    @property
    def num_flows(self) -> int:
        """Number of flows that cast votes."""
        return self._rows

    def top(self, n: int = 1) -> List[Tuple[DirectedLink, float]]:
        """The ``n`` most voted links (none for ``n <= 0``)."""
        return self.items()[:n] if n > 0 else []

    def max_link(self) -> Optional[DirectedLink]:
        """The single most voted link (``None`` when no votes were cast)."""
        items = self.items()
        return items[0][0] if items else None

    def rank_of(self, link: DirectedLink) -> Optional[int]:
        """1-based rank of ``link`` in :meth:`items` (``None`` when unvoted)."""
        if self._rank_cache is None:
            self._rank_cache = {
                candidate: position
                for position, (candidate, _) in enumerate(self.items(), start=1)
            }
        return self._rank_cache.get(link)

    def snapshot(self) -> "ArrayVoteTally":
        """An independent point-in-time tally sharing the link index.

        O(rows + links), not O(total hops): the CSR buffers are shared as
        array views (safe — this tally appends past the snapshot's watermark
        or reallocates, it never writes inside it, and a snapshot's own first
        append finds its views full and reallocates) and only the state
        mutated in place afterwards is copied: votes, support, retransmission
        counts.
        """
        self._fold()
        clone = ArrayVoteTally(policy=self._policy, index=self._index)
        rows, hops = self._rows, self._hops
        clone._rows = clone._folded_rows = rows
        clone._hops = hops
        clone._cols = self._cols[:hops]
        clone._indptr = self._indptr[: rows + 1]
        clone._flow_ids = self._flow_ids[:rows]
        clone._retransmissions = self._retransmissions[:rows].copy()
        clone._seqs = self._seqs[:rows]
        clone._votes = self._votes.copy()
        clone._support = self._support.copy()
        return clone

    copy = snapshot

    def extend(self, other: "ArrayVoteTally") -> None:
        """Append ``other``'s rows after this tally's own; ``other`` is only read.

        The merge of two parts of one epoch folded apart, in any order: the
        CSR rows (counts as bumped since, seqs) are copied and ``other``'s
        votes and support, already folded, are added (the rows are disjoint;
        integer units add exactly).  Flows are bound by seq, as ever.  Both
        tallies must share the link index and the vote policy.
        """
        if other._index is not self._index or other._policy != self._policy:
            raise ValueError("extend needs a tally over the same index and policy")
        count = other._rows
        if not count:
            return
        votes, support = other.votes_array(), other.support_array()
        self._fold()
        flows, retransmissions, _, cols, seqs = other.record_columns()
        row, start = self._rows, self._hops
        rows, hops = row + count, start + len(cols)
        self._reserve(rows, hops)
        self._cols[start:hops] = cols
        self._indptr[row + 1 : rows + 1] = other._indptr[1 : count + 1] + start
        self._flow_ids[row:rows] = flows
        self._retransmissions[row:rows] = retransmissions
        self._seqs[row:rows] = seqs
        self._rows = self._folded_rows = rows
        self._hops = hops
        self._votes[: len(votes)] += votes
        self._support[: len(support)] += support
        self._invalidate()


# ----------------------------------------------------------------------
# Algorithm 1 over arrays
# ----------------------------------------------------------------------
def _hops_of_rows(indptr: np.ndarray, rows: np.ndarray):
    """``(flat, starts, lengths)``: the positions in ``cols`` of every hop of
    ``rows`` back to back, and each row's segment start/length within them."""
    lengths = indptr[rows + 1] - indptr[rows]
    starts = np.cumsum(lengths) - lengths
    flat = np.repeat(indptr[rows] - starts, lengths) + np.arange(lengths.sum())
    return flat, starts, lengths


def blame_kernel(
    votes: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    eligible: np.ndarray,
    sort_ranks: np.ndarray,
    threshold_votes: float,
    config: BlameConfig,
) -> Tuple[List[int], List[float], np.ndarray]:
    """The argmax + masked-discounting loop shared by link and switch blame.

    Returns ``(detected_ids, votes_at_detection, final_votes)``.  The input
    ``votes`` array is not modified.  Each detection finds the still-alive rows
    holding the blamed id with one ``cols == best`` scan (O(hops); no sorted
    index is kept) and discounts their hops (the id itself exempt) with one
    unbuffered ``np.subtract.at``, then clamps the touched ids at 0.
    ``weights`` must be non-negative (``ValueError`` otherwise).  Link blame
    passes integer vote units, whose differences are exact: an id's votes are
    the units of its alive rows and never go below zero.  Switch blame passes
    float votes, where an id's votes only fall, so a ``max(0.0, v - w)`` per
    subtraction in (row, hop) order equals the unclamped value until that
    first reaches zero or below and is 0 from then on — one clamp at the end
    yields the same doubles, bit for bit.
    """
    if not bool((weights >= 0.0).all()):
        raise ValueError("blame_kernel needs non-negative weights")
    votes = votes.copy()
    num_rows = len(indptr) - 1
    blamed = np.zeros(len(votes), dtype=bool)
    alive = np.ones(num_rows, dtype=bool)
    detected: List[int] = []
    votes_at: List[float] = []
    # row of every hop; built on the first detection (most epochs have none)
    row_of_pos: Optional[np.ndarray] = None

    while len(detected) < config.max_links:
        candidate = eligible & ~blamed
        if not candidate.any():
            break
        masked = np.where(candidate, votes, -np.inf)
        vmax = float(masked.max())
        if vmax < threshold_votes or vmax <= 0.0:
            break
        tied = np.flatnonzero(masked == vmax)
        best = int(tied[np.argmin(sort_ranks[tied])]) if len(tied) > 1 else int(tied[0])
        blamed[best] = True
        detected.append(best)
        votes_at.append(vmax)

        if config.adjustment == "paths":
            if row_of_pos is None:
                row_of_pos = np.repeat(np.arange(num_rows), np.diff(indptr))
            # alive rows holding ``best``, ascending, each once (a looped path repeats)
            rows = row_of_pos[cols == best]
            rows = rows[alive[rows]]
            rows = rows[np.diff(rows, prepend=-1) > 0]
            alive[rows] = False
            # Every hop of those rows is discounted, once per occurrence;
            # ``best`` is exempt: its votes are put back afterwards.
            flat, _, lengths = _hops_of_rows(indptr, rows)
            touched = cols[flat]
            own = votes[best]
            np.subtract.at(votes, touched, np.repeat(weights[rows], lengths))
            votes[touched[~(votes[touched] > 0.0)]] = 0.0
            votes[best] = own
    return detected, votes_at, votes


@dataclass(eq=False)
class VerdictArrays:
    """What Algorithm 1 read and left behind, frozen when it ran.

    A report's per-link tables (``EpochReport.ranked_links``,
    ``BlameResult.final_votes``) are derived from these when first read;
    whoever wants the numbers without the objects reads the arrays.  Ids
    keep their meaning while an index grows and the ranking uses the sort
    ranks as of the run, so a late read equals an immediate one.
    """

    index: LinkIndex
    #: voted link ids, ascending, then — position for position —
    #: their votes before Algorithm 1 and what it left of them.
    ids: np.ndarray
    votes: np.ndarray
    final: np.ndarray
    #: blamed ids in blame order, and their votes when blamed.
    detected: List[int]
    votes_at: List[float]
    sort_ranks: np.ndarray
    _ranked: Optional[np.ndarray] = field(default=None, repr=False)

    def ranked(self) -> np.ndarray:
        """Positions of ``ids`` by decreasing votes, ties in link order: one
        ``lexsort``, kept (threads racing here compute equal arrays)."""
        if self._ranked is None:
            self._ranked = np.lexsort((self.sort_ranks[self.ids], -self.votes))
        return self._ranked

    def table(self, labels: Sequence, values: np.ndarray, positions=slice(None)):
        """``(labels[id], value)`` for the given positions of ``ids``."""
        return _link_table(labels, self.ids[positions], values[positions])


def find_problematic_links_arrays(
    tally: ArrayVoteTally, config: Optional[BlameConfig] = None
) -> BlameResult:
    """Algorithm 1 over an :class:`ArrayVoteTally` (see :mod:`repro.core.blame`).

    Only the decision becomes objects here, O(detections) of them; the
    result's ``final_votes`` is derived from its ``arrays`` when first read.
    The kernel runs in vote units; votes are divided by ``VOTE_UNITS`` on
    the way out.
    """
    config = config or BlameConfig()
    votes = tally.votes_array()
    total = float(votes.sum())
    sort_ranks = tally.index.sort_ranks()
    detected, at, final = [], [], votes
    if total > 0.0:
        indptr, cols, units = tally.path_matrix()
        detected, at, final = blame_kernel(
            votes,
            indptr,
            cols,
            units,
            tally.support_array() >= config.min_flow_support,
            sort_ranks,
            config.threshold_fraction * total,
            config,
        )
    ids = tally.voted_ids()
    detected_links = list(map(tally.index.items.__getitem__, detected))
    votes_at = [units / VOTE_UNITS for units in at]
    return BlameResult(
        detected_links=detected_links,
        votes_at_detection=dict(zip(detected_links, votes_at)),
        threshold_votes=config.threshold_fraction * (total / VOTE_UNITS),
        final_votes=None,
        arrays=VerdictArrays(
            tally.index,
            ids,
            votes[ids] / VOTE_UNITS,
            final[ids] / VOTE_UNITS,
            detected,
            votes_at,
            sort_ranks,
        ),
    )


# ----------------------------------------------------------------------
# vectorized ranking, attribution and noise classification
# ----------------------------------------------------------------------
def _csr(tally: ArrayVoteTally) -> Tuple[np.ndarray, np.ndarray]:
    """The tally's ``(indptr, cols)`` (:meth:`ArrayVoteTally.path_matrix`
    without the row units)."""
    return tally._indptr[: tally._rows + 1], tally._cols[: tally._hops]


def attribute_flow_causes_arrays(
    tally: ArrayVoteTally, rows: np.ndarray, sort_ranks: Optional[np.ndarray] = None
) -> Dict[int, DirectedLink]:
    """Per-flow culprit attribution for the given rows of the path matrix.

    For each selected flow the most voted link on its own path wins; ties go to
    the smallest link, matching the dict engine's ``max(sorted(links), ...)``.
    ``sort_ranks`` is the index's, taken now unless the caller kept an earlier
    array covering the tally's links (an index that grew since ranks them in
    the same relative order).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return {}
    indptr, cols = _csr(tally)
    votes = tally.votes_array()
    ranks = tally.index.sort_ranks() if sort_ranks is None else sort_ranks
    flow_ids = tally.flow_ids_array()

    flat, starts, lengths = _hops_of_rows(indptr, rows)
    seg_cols = cols[flat]
    seg_votes = votes[seg_cols]
    seg_max = np.maximum.reduceat(seg_votes, starts)
    is_max = seg_votes == np.repeat(seg_max, lengths)
    seg_ranks = np.where(is_max, ranks[seg_cols], np.iinfo(np.int64).max)
    best_rank = np.minimum.reduceat(seg_ranks, starts)

    # map the winning rank back to its link id
    rank_to_id = np.empty(len(ranks), dtype=np.int64)
    rank_to_id[ranks] = np.arange(len(ranks), dtype=np.int64)
    best_ids = rank_to_id[best_rank]

    return dict(
        zip(
            flow_ids[rows].tolist(),
            map(tally.index.items.__getitem__, best_ids.tolist()),
        )
    )


def failure_rows_mask(
    tally: ArrayVoteTally,
    detected_links: Sequence[DirectedLink],
    max_noise_retransmissions: int = 1,
) -> np.ndarray:
    """Per row of the path matrix: is that record a failure drop (it crosses
    a detected link or retransmitted more than a lone noise drop would)."""
    indptr, cols = _csr(tally)
    num_rows = len(indptr) - 1
    retrans = tally.retransmissions_array()

    detected_mask = np.zeros(max(len(tally.index), 1), dtype=bool)
    for link in detected_links:
        lid = tally.index.get(link)
        if lid is not None:
            detected_mask[lid] = True

    if num_rows:
        hit = detected_mask[cols].astype(np.int64)
        touches = np.maximum.reduceat(hit, indptr[:-1]).astype(bool)
    else:
        touches = np.zeros(0, dtype=bool)
    return touches | (retrans > max_noise_retransmissions)


def classify_noise_flows_arrays(
    tally: ArrayVoteTally,
    detected_links: Sequence[DirectedLink],
    max_noise_retransmissions: int = 1,
) -> NoiseClassification:
    """Vectorized twin of :func:`repro.core.noise.classify_noise_flows`."""
    failure = failure_rows_mask(tally, detected_links, max_noise_retransmissions)
    flow_ids = tally.flow_ids_array()
    return NoiseClassification(
        noise_flows=frozenset(flow_ids[~failure].tolist()),
        failure_flows=frozenset(flow_ids[failure].tolist()),
    )
