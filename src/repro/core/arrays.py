"""NumPy-backed analysis engine: interned links, fixed-width hop rows, array Algorithm 1.

The dict-based reference engine (:mod:`repro.core.votes`, :mod:`repro.core.blame`)
keys every tally on :class:`~repro.topology.elements.DirectedLink` objects and
re-scans the per-flow ``VoteContribution`` lists inside Algorithm 1, which makes
the per-epoch analysis the dominant cost at large fabric sizes.  This module is
its vectorized twin:

* :class:`ItemIndex` / :class:`LinkIndex` intern hashable items (links, host
  names and addresses) to dense integer ids so per-link state lives in flat
  arrays;
* :class:`ArrayVoteTally` stores an epoch's discovered paths as one
  ``MAX_HOPS``-wide row of link ids per flow, in one set of grown numpy
  buffers, and folds the vote tally *and* the per-link distinct-flow support
  incrementally over the rows appended since the last query;
* :func:`find_problematic_links_arrays` runs Algorithm 1 as argmax, one
  compare over the rows and one ``numpy.subtract.at`` over the hit rows per
  detection instead of re-scanning contribution lists;
* helpers vectorize ranking, per-flow culprit attribution and noise
  classification over the same rows.

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

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.analysis import EpochReport


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
        #: the first items in sorted order and, by id, their ranks in it.
        self._order: Tuple[List, np.ndarray] = ([], np.zeros(0, dtype=np.int64))
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

    def table_ids(self, table: Sequence) -> np.ndarray:
        """:meth:`fast_ids` of a table (a restored checkpoint's): an empty
        index adopts a table in which no item repeats as it is, in one
        hashing pass, the ids its positions; a repeated item keeps the id
        of its first occurrence."""
        if not self._items:
            ids = dict(zip(table, range(len(table))))
            if len(ids) == len(table):
                self._ids = ids
                self._items.extend(table)  # the list handed out stays live
                return np.arange(len(table), dtype=np.int64)
        return self.fast_ids(table)

    def truncate(self, size: int) -> None:
        """Forget every item interned after the first ``size``: take back a
        batch that was refused after it was interned."""
        for item in self._items[size:]:
            del self._ids[item]
        del self._items[size:]
        self._names = self._names[:size]
        if len(self._order[1]) > size:
            self._order = ([], np.zeros(0, dtype=np.int64))

    def get(self, item) -> Optional[int]:
        """The id of ``item`` or ``None`` when it was never interned."""
        return self._ids.get(item)

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
        """``ranks[id]`` = position of the item in the sorted item order.

        Caught up with the items interned since it was last asked for by
        merging them into the kept sorted order, one ``bisect`` per new
        item: no re-sort of the known ones.  The array is replaced, never
        written in place — reports hold the ranks of their build.
        """
        ordered, ranks = self._order
        known, count = len(ranks), len(self._items)
        if known < count:
            items = self._items
            fresh = sorted(range(known, count), key=items.__getitem__)
            # a new item lands before the ``at`` known items above it
            at = np.fromiter(
                map(bisect_left, repeat(ordered), map(items.__getitem__, fresh)),
                dtype=np.int64,
                count=len(fresh),
            )
            merged = np.empty(count, dtype=np.int64)
            merged[:known] = ranks + np.searchsorted(at, ranks, side="right")
            new_ids = np.fromiter(fresh, dtype=np.int64, count=len(fresh))
            merged[new_ids] = at + np.arange(len(fresh))
            by_rank = np.empty(count, dtype=np.int64)
            by_rank[merged] = np.arange(count)
            ranks = merged
            self._order = (list(map(items.__getitem__, by_rank.tolist())), ranks)
        return ranks


class LinkIndex(ItemIndex):
    """An :class:`ItemIndex` specialised to :class:`DirectedLink` objects."""

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


#: the pad of a hop row's unused cells.  Indexing with it reads an array's
#: last slot, so every per-link array a row indexes here carries one slot past
#: the links (the *dump*) that no vote, count, membership test or argmax reads.
PAD = -1

#: one row's ``MAX_HOPS`` booleans read as one unsigned word.
_ROW_WORD = np.dtype(f"u{MAX_HOPS}")

#: ``[h]``: the used cells of an ``h``-hop row, as one word.
_CELL_WORDS = (
    (np.arange(MAX_HOPS) < np.arange(MAX_HOPS + 1)[:, None]).view(_ROW_WORD).ravel()
)


def _cells(lengths: np.ndarray) -> np.ndarray:
    """The used cells of rows of these lengths: a ``(rows, MAX_HOPS)`` mask,
    row-major in the order of the rows' hops back to back (a gather of one
    word a row; a broadcast compare is ten times slower)."""
    return _CELL_WORDS[lengths].view(bool).reshape(-1, MAX_HOPS)


def hop_rows(
    lengths: Sequence[int], link_ids: Sequence[int], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Paths given as CSR (``link_ids`` back to back, ``lengths`` hops each)
    as hop rows: one left-aligned int32 row of ``MAX_HOPS`` cells per path,
    the cells past its length ``PAD`` — written into ``out`` (all ``PAD``)
    when given."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if out is None:
        out = np.full((len(lengths), MAX_HOPS), PAD, dtype=np.int32)
    out[_cells(lengths)] = link_ids
    return out


def _any_per_row(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=1)`` of a contiguous ``(rows, MAX_HOPS)`` boolean
    matrix, one word read a row."""
    return mask.view(_ROW_WORD).ravel() != 0


def _row_min(values: np.ndarray) -> np.ndarray:
    """``values.min(axis=1)`` of a ``(rows, MAX_HOPS)`` matrix, a column at
    a time (numpy's reduction over eight-cell rows is several times slower)."""
    low = values[:, 0].copy()
    for column in range(1, values.shape[1]):
        np.minimum(low, values[:, column], out=low)
    return low


def _grown(buf: np.ndarray, used: int, need: int, pad=None) -> np.ndarray:
    """A reallocated copy of ``buf[:used]`` with geometrically grown capacity
    (rows, for a matrix), the rest filled with ``pad`` when given.

    Growth reallocates instead of resizing in place, so array views handed out
    by earlier snapshots keep the old buffer alive and never observe the new
    writes; within one buffer, appends only touch ``buf[used:]``.
    """
    shape = (max(need, 2 * len(buf), 1024),) + buf.shape[1:]
    if pad is None:
        grown = np.empty(shape, dtype=buf.dtype)
    else:
        grown = np.full(shape, pad, dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class ArrayVoteTally:
    """A drop-in, array-backed replacement for :class:`~repro.core.votes.VoteTally`.

    Paths are stored as hop rows over a :class:`LinkIndex`, in one set of
    geometrically grown numpy buffers that every entry point writes directly:
    ``matrix`` holds one ``MAX_HOPS``-wide int32 row per path (flow), its
    interned link ids left-aligned and the rest ``PAD``; ``lengths`` holds
    each row's hop count (its vote follows from it) and ``flow_ids``/
    ``retransmissions``/``seqs`` the rest of its bookkeeping.  "The rows
    holding link X" is one compare over the matrix, and a row's hops are
    its row: no offsets to look up.  CSR is only this class's edge format
    (:meth:`add_columns` in, :meth:`record_columns` out).
    The vote tally and the per-link distinct-flow support are an
    incrementally maintained materialized view: each query folds only the
    rows appended since the last query into running accumulators, with one
    ``bincount`` of integer vote units — exact, however the rows were cut
    into folds or ordered.
    A fold therefore reads no earlier row, but it is not free of the
    fabric's size: its counts have one slot per (link, row length).
    Flows are bound as in :class:`~repro.core.votes.VoteTally`.

    Cost: a bulk append scatters its CSR into the rows with one masked
    write and :meth:`record_columns` gathers it back with one masked read,
    O(rows × MAX_HOPS) each (0.5-1 ms per 32 000 rows on a 2-CPU x86 host,
    numpy 2.4); a fold is one ``bincount`` over the new rows' cells plus a
    compare per hop position, O(new rows × longest new row), and one
    product over those counts, O(links × MAX_HOPS) — on the 2 816-link
    fabric a query-sized fold of ~1 000 rows takes ~0.3 ms (same host).
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
        # The row buffers, ``_rows`` of them used; every matrix row past the
        # used ones is all ``PAD`` (grown so, never written before use).
        self._rows = 0
        self._matrix = np.empty((0, MAX_HOPS), dtype=np.int32)
        self._lengths = np.empty(0, dtype=np.int64)
        self._flow_ids = np.empty(0, dtype=np.int64)
        self._retransmissions = np.empty(0, dtype=np.int64)
        self._seqs = np.empty(0, dtype=np.int64)
        #: each flow's bound row — its highest-seq row, the later row a tie —
        #: as a sorted index over the first ``_indexed`` rows, caught up
        #: when next asked for (a snapshot starts from none): flow ids
        #: ascending and, position for position, their bound rows.
        self._bound_flows = np.empty(0, dtype=np.int64)
        self._bound_rows = np.empty(0, dtype=np.int64)
        self._indexed = 0
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
    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows in total."""
        if rows > len(self._flow_ids):
            used = self._rows
            self._matrix = _grown(self._matrix, used, rows, pad=PAD)
            self._lengths = _grown(self._lengths, used, rows)
            self._flow_ids = _grown(self._flow_ids, used, rows)
            self._retransmissions = _grown(self._retransmissions, used, rows)
            self._seqs = _grown(self._seqs, used, rows)

    def units(self) -> np.ndarray:
        """``[h]``: the vote per link of an ``h``-hop row in units (float64;
        a row's vote follows from its hop count)."""
        if self._policy == "unit":
            return np.full(MAX_HOPS + 1, float(VOTE_UNITS))
        return _UNITS_BY_HOPS

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
        row = self._rows
        if row >= len(self._flow_ids):
            self._reserve(row + 1)
        self._matrix[row, : len(links)] = list(map(self._index.intern, links))
        self._lengths[row] = len(links)
        self._flow_ids[row] = flow_id
        self._retransmissions[row] = retransmissions
        self._seqs[row] = row if seq is None else seq
        self._rows = row + 1
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
        point for callers that never build path objects (every bulk
        admission of the service: decoded wire runs, restores).  Raises
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
        row = self._rows
        rows = row + count
        self._reserve(rows)
        hop_rows(lengths, cols, out=self._matrix[row:rows])
        self._lengths[row:rows] = lengths
        self._flow_ids[row:rows] = flow_ids
        self._retransmissions[row:rows] = retransmissions
        self._seqs[row:rows] = np.arange(row, rows) if seqs is None else seqs
        self._rows = rows
        self._invalidate()

    @property
    def bound_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(flows, rows)``: every flow id, ascending, and position for
        position its bound row — its highest-seq row, the later row a tie —
        caught up with the rows appended since it was last asked for: per
        new flow one insertion, per known flow one seq comparison, no
        Python loop.  Do not mutate."""
        if self._indexed < self._rows:
            self._index_rows()
        return self._bound_flows, self._bound_rows

    def flow_rows(self) -> Dict[int, int]:
        """flow id -> its bound row: :attr:`bound_index` as a fresh dict."""
        flows, rows = self.bound_index
        return dict(zip(flows.tolist(), rows.tolist()))

    def bound_rows(self, flows: np.ndarray) -> np.ndarray:
        """Each of ``flows``' bound row (:attr:`bound_index`), ``-1`` for a
        flow without one."""
        known, rows = self.bound_index
        if not len(known):
            return np.full(len(flows), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(known, flows), len(known) - 1)
        return np.where(known[at] == flows, rows[at], -1)

    def _index_rows(self) -> None:
        """Catch the sorted flow index up with the rows appended since."""
        lo, hi = self._indexed, self._rows
        self._indexed = hi
        seqs = self._seqs
        new_flows = self._flow_ids[lo:hi]
        # each flow's winner among the new rows: the last of its group in
        # (flow, seq) order, rows tied on both in row order (stable)
        order = np.lexsort((seqs[lo:hi], new_flows))
        ranked = new_flows[order]
        last = np.append(ranked[1:] != ranked[:-1], True)
        flows_in, rows_in = ranked[last], order[last] + lo
        known, rows = self._bound_flows, self._bound_rows
        if not len(known) or known[-1] < flows_in[0]:
            # every flow is new and above the known ones (ids that grow)
            self._bound_flows = np.concatenate((known, flows_in))
            self._bound_rows = np.concatenate((rows, rows_in))
            return
        at = np.searchsorted(known, flows_in)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == flows_in[hit]
        # a later row outranks its flow's bound row unless its seq is lower
        beats = seqs[rows_in[hit]] >= seqs[rows[at[hit]]]
        rows[at[hit][beats]] = rows_in[hit][beats]
        # the new flows land in order among the known ones
        fresh = ~hit
        into = at[fresh] + np.arange(int(np.count_nonzero(fresh)))
        kept = np.ones(len(known) + len(into), dtype=bool)
        kept[into] = False
        for name, old, new in (
            ("_bound_flows", known, flows_in[fresh]),
            ("_bound_rows", rows, rows_in[fresh]),
        ):
            merged = np.empty(len(kept), dtype=np.int64)
            merged[into], merged[kept] = new, old
            setattr(self, name, merged)

    def bump_rows(self, rows: Sequence[int], extras: Sequence[int]) -> None:
        """Add ``extras[i]`` retransmissions to row ``rows[i]`` (row indices
        come from :meth:`bound_rows`).

        Votes are untouched (the flows' paths are unchanged), so only the
        rebuilt-on-demand contribution view is invalidated, not the fold.
        """
        if len(rows):
            np.add.at(self._retransmissions, rows, extras)
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
        lengths = self._lengths[lo:hi]
        width = int(lengths.max())
        # One key per cell, ``(id + 1) * stride + row length``, hop ``j`` of
        # every row in row ``j`` (long runs for the compares below): a pad's
        # key falls in slot 0, which is dropped.
        stride = MAX_HOPS + 1
        keys = np.multiply(
            self._matrix[lo:hi, :width].T, stride, dtype=np.intp, order="C"
        )
        keys += lengths + stride
        counts = np.bincount(keys.ravel(), minlength=(n + 1) * stride)
        counts = counts.reshape(n + 1, stride)[1:]
        # A link's votes are its cells per row length times that length's
        # units: integers, exact in float64, so the sum is the same whatever
        # the order of the rows or the folds they were cut into.
        self._votes += counts @ self.units()
        # Support counts the distinct (row, link) pairs of the tail rows
        # (each row is folded exactly once, so pairs never repeat across
        # folds).  No sort: a cell repeats an earlier one of its row iff its
        # key equals the key ``s`` hops before it, for some ``s`` below the
        # longest row — pads equal pads, but a repeat needs a link.
        support = counts.sum(axis=1)
        repeats = np.zeros(keys.shape, dtype=bool)
        for s in range(1, width):
            repeats[s:] |= keys[s:] == keys[:-s]
        repeats &= keys >= stride
        if repeats.any():  # looped paths: rare
            support -= np.bincount(keys[repeats] // stride - 1, minlength=n)
        self._support += support
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

    def hop_matrix(self) -> np.ndarray:
        """The hop rows: one ``MAX_HOPS``-wide int32 row per flow, its link
        ids left-aligned, then ``PAD`` (a view of the buffer)."""
        return self._matrix[: self._rows]

    def lengths_array(self) -> np.ndarray:
        """Hop counts per row (a view of the buffer)."""
        return self._lengths[: self._rows]

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
        self, rows: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(flow_ids, retransmissions, lengths, link_ids, seqs)`` of every
        row, or of ``rows`` in that order — :meth:`add_columns`'s arguments
        read back, ``link_ids`` in this tally's index (int32, the rows' used
        cells back to back: a fresh column).  Without ``rows`` the rest are
        views of the live buffers: copy what must outlive the next write to
        the tally.
        """
        columns = (
            self.flow_ids_array(),
            self.retransmissions_array(),
            self.lengths_array(),
            self.hop_matrix(),
            self.seqs_array(),
        )
        if rows is not None:
            columns = tuple(column[rows] for column in columns)
        flows, counts, lengths, matrix, seqs = columns
        return flows, counts, lengths, matrix[_cells(lengths)], seqs

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
        """Per-flow contributions, rebuilt from the hop rows on demand."""
        if self._contributions_cache is None:
            flow_ids, counts, lengths, link_ids, _ = self.record_columns()
            bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
            hops = list(map(self._index.items.__getitem__, link_ids.tolist()))
            self._contributions_cache = [
                VoteContribution(
                    flow_id=flow_id,
                    links=tuple(hops[start:stop]),
                    units=row_units,
                    retransmissions=retransmissions,
                )
                for flow_id, start, stop, row_units, retransmissions in zip(
                    flow_ids.tolist(),
                    bounds,
                    bounds[1:],
                    self.units()[lengths].astype(np.int64).tolist(),
                    counts.tolist(),
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

        O(rows + links), not O(rows × MAX_HOPS): the row buffers are shared
        as array views (safe — this tally appends past the snapshot's
        watermark or reallocates, it never writes inside it, and a
        snapshot's own first append finds its views full and reallocates)
        and only the state mutated in place afterwards is copied: votes,
        support, retransmission counts.
        """
        self._fold()
        clone = ArrayVoteTally(policy=self._policy, index=self._index)
        rows = self._rows
        clone._rows = clone._folded_rows = rows
        clone._matrix = self._matrix[:rows]
        clone._lengths = self._lengths[:rows]
        clone._flow_ids = self._flow_ids[:rows]
        clone._retransmissions = self._retransmissions[:rows].copy()
        clone._seqs = self._seqs[:rows]
        clone._votes = self._votes.copy()
        clone._support = self._support.copy()
        return clone

    copy = snapshot


# ----------------------------------------------------------------------
# Algorithm 1 over arrays
# ----------------------------------------------------------------------
def _rows_holding(
    matrix: np.ndarray, link: int, row_steps: np.ndarray, first: int
) -> np.ndarray:
    """The alive rows (no step took them yet) from ``first`` on holding
    ``link``, ascending, each once (a looped path repeats), counted from
    ``first``: ``row_steps`` is those rows' record.  One compare of their
    cells, read as one word a row."""
    rows = np.flatnonzero(_any_per_row(matrix[first:] == link))
    return rows[row_steps[rows] < 0]


def _discount(votes, matrix, weights, rows, best) -> None:
    """Take ``rows``' votes (``weights``, one a row) off every cell they
    hold, once per occurrence (a pad's off the dump slot), and clamp at 0;
    ``best`` keeps its votes."""
    own = votes[best]
    np.subtract.at(votes, matrix[rows].ravel(), np.repeat(weights, MAX_HOPS))
    np.maximum(votes, 0.0, out=votes)
    votes[best] = own


def blame_kernel(
    votes: np.ndarray,
    matrix: np.ndarray,
    lengths: np.ndarray,
    units: np.ndarray,
    eligible: np.ndarray,
    sort_ranks: np.ndarray,
    threshold_votes: float,
    config: BlameConfig,
    prior: Optional[Tuple[int, List[int], np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[List[int], List[float], List[np.ndarray], np.ndarray]:
    """Algorithm 1's argmax + masked-discounting loop for link blame.

    ``matrix`` holds the paths as hop rows (:func:`hop_rows`: ids into
    ``votes``, then ``PAD``), ``lengths`` their hop counts and ``units[h]``
    the vote per link of an ``h``-hop row: a row's weight is read only
    when a detection takes the row.
    Returns ``(detected_ids, votes_at_detection, steps, row_steps)``:
    ``steps[k]`` is the votes at the start of greedy step ``k``, and
    ``steps[-1]`` what the loop left; ``row_steps[r]`` is the step of the
    first detection whose id row ``r`` holds, ``-1`` for none — under
    ``adjustment="paths"`` the step that took the row's votes.  The input
    ``votes`` array is not modified: the loop works on a copy with one more
    slot, where the pads' discounts land.  Each detection finds the
    still-alive rows holding the blamed id with one compare over the matrix
    (one word a row for "any cell"), records the step on them — the record
    is what marks a row dead — and discounts their cells (the id itself
    exempt: a blamed id keeps its votes at detection) with one unbuffered
    ``np.subtract.at`` in (row, hop) order, then clamps every id at 0.
    Without adjustment no row is looked up inside the loop, and the record
    costs one gather of every cell after it.

    ``prior`` resumes an earlier run over the first ``rows`` rows:
    ``(rows, detected, ids, steps, row_steps)``, its detections, over the
    ids it saw voted its ``steps``, and its record.  ``votes`` then starts
    as the earlier run's step-0 votes plus ``tail``, the votes of the rows
    appended since; at each step the recorded votes plus ``tail`` are the
    votes a fresh run would hold, and while the argmax repeats the recorded
    detection only the appended rows holding it are found and taken off
    ``tail``, and only they get a record: the earlier rows keep theirs,
    joined to it by one concatenation at the end (rows taken at a step the
    run no longer reaches come alive again, the one case that reads every
    earlier row).  From the first step that decides otherwise the ordinary
    loop runs on, every row holding none of the earlier detections alive —
    the earlier rows' record says which, O(rows).  Every step is still
    decided on the current eligibility, threshold and ranks, so the result
    equals a fresh run's exactly — for integer votes, which its one caller,
    :func:`find_problematic_links_arrays`, passes: an id's votes are then
    the units of its alive rows and never go below zero.

    Cost: a fresh run compares every row once per detection, O(rows), and
    discounts O(hit rows); every step also clamps and masks O(links).  A
    resumed run compares only the appended rows and rebuilds the votes once
    per step, O(new rows + links) a step; what grows with the earlier rows
    is one concatenation of their record (a copy of 4 bytes a row), plus
    one O(rows) compare per detection after the run leaves the recorded
    ones.

    Input contract: ``units`` must be non-negative and ``votes`` finite
    and non-negative, ``-0.0`` excluded (``ValueError`` otherwise); beyond
    that, a fresh run accepts any float votes.  An id's votes then only
    fall, so a ``max(0.0, v - w)`` per subtraction in (row, hop) order
    equals the unclamped value until that first reaches zero or below and
    is 0 from then on — one clamp at the end of a step yields the same
    doubles, bit for bit, and leaves the ids no row touched as they were.
    """
    if not bool((units >= 0.0).all()):
        raise ValueError("blame_kernel needs non-negative weights")
    if not bool(np.isfinite(votes).all()) or bool(np.signbit(votes).any()):
        raise ValueError("blame_kernel needs finite non-negative votes")
    n = len(votes)
    votes = np.append(votes, 0.0)  # the last slot: the pads' dump
    # the ids still open for blame: eligible and not yet blamed, never the dump
    candidate = np.append(eligible, False)
    detected: List[int] = []
    votes_at: List[float] = []
    steps: List[np.ndarray] = []
    # rows ``[first, ...)`` are compared and ``row_steps`` is their record;
    # ``tail`` is not None while resuming
    first, tail = 0, None
    if prior is not None:
        # the earlier rows' record is read back once the run leaves it
        first, recorded, prior_ids, prior_steps, prior_rows = prior
    row_steps = np.full(len(matrix) - first, -1, dtype=np.int32)
    while True:
        if tail is not None:  # the recorded votes plus the appended rows'
            votes = tail.copy()
            votes[prior_ids] += prior_steps[len(detected)]
        if len(detected) >= config.max_links:
            break
        masked = np.where(candidate, votes, -np.inf)
        vmax = float(masked.max())
        if vmax < threshold_votes or vmax <= 0.0:
            break
        tied = np.flatnonzero(masked == vmax)
        best = int(tied[np.argmin(sort_ranks[tied])]) if len(tied) > 1 else int(tied[0])
        if prior is not None:
            step = len(detected)
            if step < len(recorded) and best == recorded[step]:
                if tail is None:  # step 0's votes are the tally's own
                    tail = votes.copy()
                    tail[prior_ids] -= prior_steps[0]
            else:  # decided otherwise: the ordinary loop from here on, over
                # every row; the rows the repeated steps took stay taken
                row_steps = np.concatenate((_steps_before(prior_rows, step), row_steps))
                prior = tail = None
                first = 0
        steps.append(votes[:n].copy())
        candidate[best] = False
        detected.append(best)
        votes_at.append(vmax)
        if config.adjustment == "paths":
            rows = _rows_holding(matrix, best, row_steps, first)
            row_steps[rows] = len(detected) - 1
            rows += first
            _discount(
                votes if tail is None else tail, matrix, units[lengths[rows]], rows, best
            )
    steps.append(votes[:n])
    if config.adjustment != "paths":
        row_steps = _first_detection_steps(matrix, detected, n)
    elif prior is not None:  # followed the earlier run to its end or short
        if len(detected) < len(recorded):
            prior_rows = _steps_before(prior_rows, len(detected))
        row_steps = np.concatenate((prior_rows, row_steps))
    return detected, votes_at, steps, row_steps


def _steps_before(row_steps: np.ndarray, steps: int) -> np.ndarray:
    """``row_steps`` with the rows taken at step ``steps`` or later alive
    (the array itself when there are none)."""
    later = row_steps >= steps
    return np.where(later, -1, row_steps) if later.any() else row_steps


def _first_detection_steps(
    matrix: np.ndarray, detected: List[int], n: int
) -> np.ndarray:
    """Per row, the step of the first of ``detected`` it holds, ``-1`` for
    none: one gather of every cell (ids below ``n``; a pad reads slot
    ``n``, no detection's)."""
    if not detected or not len(matrix):
        return np.full(len(matrix), -1, dtype=np.int32)
    step_of = np.full(n + 1, len(detected), dtype=np.int32)
    step_of[detected] = np.arange(len(detected), dtype=np.int32)
    return _steps_before(_row_min(step_of[matrix]), len(detected))


@dataclass(eq=False)
class VerdictArrays:
    """What Algorithm 1 read and left behind, frozen when it ran.

    A report's per-link tables (``EpochReport.ranked_links``,
    ``BlameResult.final_votes``) are derived from these when first read;
    whoever wants the numbers without the objects reads the arrays.  Ids
    keep their meaning while an index grows and the ranking uses the sort
    ranks as of the run, so a late read equals an immediate one.  A later
    run over more rows of the same tally resumes from ``steps`` and
    ``row_steps`` (:func:`blame_kernel`).
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
    #: ``[k]``: the votes of ``ids`` at the start of greedy step ``k``, in
    #: units (``[0]`` before Algorithm 1, ``[-1]`` what it left).
    steps: np.ndarray
    #: ``[r]``: the greedy step of the first detection whose link row ``r``
    #: of the tally holds, ``-1`` for none (int32, one entry per row the run
    #: read).  Under ``adjustment="paths"`` the step that took the row's
    #: votes; ``>= 0`` is the row half of a failure drop (:func:`failure_rows`).
    row_steps: np.ndarray
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
    tally: ArrayVoteTally,
    config: Optional[BlameConfig] = None,
    prior: Optional["EpochReport"] = None,
) -> BlameResult:
    """Algorithm 1 over an :class:`ArrayVoteTally` (see :mod:`repro.core.blame`).

    Only the decision becomes objects here, O(detections) of them; the
    result's ``final_votes`` is derived from its ``arrays`` when first read.
    The kernel runs in vote units; votes are divided by ``VOTE_UNITS`` on
    the way out.  ``prior``, a report on the first rows of this same tally
    under the same ``config``, lets the kernel resume from its verdict —
    or, when it covers every row, stands as the verdict: only count
    updates can have arrived since, and they move no vote, support,
    threshold or sort order.  The result is then a fresh
    :class:`BlameResult` over the prior's arrays, O(detections).
    """
    config = config or BlameConfig()
    if prior is not None and prior.num_paths_analyzed == tally.num_flows:
        blame = prior.blame
        return BlameResult(
            detected_links=list(blame.detected_links),
            votes_at_detection=dict(blame.votes_at_detection),
            threshold_votes=blame.threshold_votes,
            final_votes=None,
            arrays=blame.arrays,
        )
    votes = tally.votes_array()
    total = float(votes.sum())
    sort_ranks = tally.index.sort_ranks()
    detected, at, steps, row_steps = [], [], [votes], np.zeros(0, dtype=np.int32)
    if total > 0.0:  # else there are no rows: every row casts votes
        if prior is not None:
            arrays = prior.blame.arrays
            prior = (
                prior.num_paths_analyzed,
                arrays.detected,
                arrays.ids,
                arrays.steps,
                arrays.row_steps,
            )
        detected, at, steps, row_steps = blame_kernel(
            votes,
            tally.hop_matrix(),
            tally.lengths_array(),
            tally.units(),
            tally.support_array() >= config.min_flow_support,
            sort_ranks,
            config.threshold_fraction * total,
            config,
            prior,
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
            steps[-1][ids] / VOTE_UNITS,
            detected,
            votes_at,
            sort_ranks,
            np.stack([step[ids] for step in steps]),
            row_steps,
        ),
    )


# ----------------------------------------------------------------------
# vectorized ranking, attribution and noise classification
# ----------------------------------------------------------------------
def attribute_flow_causes_arrays(
    tally: ArrayVoteTally, rows: np.ndarray, sort_ranks: Optional[np.ndarray] = None
) -> Dict[int, DirectedLink]:
    """Per-flow culprit attribution for the given rows of the tally.

    For each selected flow the most voted link on its own path wins; ties go to
    the smallest link, matching the dict engine's ``max(sorted(links), ...)``.
    ``sort_ranks`` is the index's, taken now unless the caller kept an earlier
    array covering the tally's links (an index that grew since ranks them in
    the same relative order).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return {}
    votes = tally.votes_array()
    ranks = tally.index.sort_ranks() if sort_ranks is None else sort_ranks
    # each link's place in the order "most votes, then link order": a row's
    # culprit is its cell placed first, and a pad (the last slot) is last
    n = min(len(votes), len(ranks))
    order = np.lexsort((ranks[:n], -votes[:n]))
    place = np.empty(n + 1, dtype=np.int64)
    place[order] = np.arange(n)
    place[n] = n
    best_ids = order[_row_min(place[tally.hop_matrix()[rows]])]
    return dict(
        zip(
            tally.flow_ids_array()[rows].tolist(),
            map(tally.index.items.__getitem__, best_ids.tolist()),
        )
    )


def failure_rows(
    row_steps: np.ndarray,
    retransmissions: np.ndarray,
    max_noise_retransmissions: int = 1,
) -> np.ndarray:
    """Per row of the path matrix: is that record a failure drop (it crosses
    a detected link — Algorithm 1's own record of the rows, O(rows) — or
    retransmitted more than a lone noise drop would)."""
    return (row_steps >= 0) | (retransmissions > max_noise_retransmissions)


def failure_rows_mask(
    tally: ArrayVoteTally,
    detected_links: Sequence[DirectedLink],
    max_noise_retransmissions: int = 1,
) -> np.ndarray:
    """:func:`failure_rows` for any list of links: one gather of every cell
    for the rows crossing one of them (the reference the record is checked
    against)."""
    # the last slot is the pads': no detection
    detected_mask = np.zeros(len(tally.index) + 1, dtype=bool)
    for link in detected_links:
        lid = tally.index.get(link)
        if lid is not None:
            detected_mask[lid] = True
    touches = _any_per_row(detected_mask[tally.hop_matrix()])
    return touches | (tally.retransmissions_array() > max_noise_retransmissions)


def classify_noise_flows_arrays(
    tally: ArrayVoteTally,
    detected_links: Sequence[DirectedLink],
    max_noise_retransmissions: int = 1,
) -> NoiseClassification:
    """Vectorized twin of :func:`repro.core.noise.classify_noise_flows`."""
    return noise_split(
        tally.flow_ids_array(),
        failure_rows_mask(tally, detected_links, max_noise_retransmissions),
    )


def noise_split(flow_ids: np.ndarray, failure: np.ndarray) -> NoiseClassification:
    """The flows of the noise rows and of the ``failure`` rows (a re-traced
    flow can be in both)."""
    return NoiseClassification(
        noise_flows=frozenset(flow_ids[~failure].tolist()),
        failure_flows=frozenset(flow_ids[failure].tolist()),
    )
