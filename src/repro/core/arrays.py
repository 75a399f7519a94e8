"""NumPy-backed analysis engine: interned links, CSR path matrices, array Algorithm 1.

The dict-based reference engine (:mod:`repro.core.votes`, :mod:`repro.core.blame`)
keys every tally on :class:`~repro.topology.elements.DirectedLink` objects and
re-scans the per-flow ``VoteContribution`` lists inside Algorithm 1, which makes
the per-epoch analysis the dominant cost at large fabric sizes.  This module is
its vectorized twin:

* :class:`ItemIndex` / :class:`LinkIndex` intern hashable items (links, switch
  names) to dense integer ids so per-link state lives in flat arrays;
* :class:`ArrayVoteTally` stores an epoch's discovered paths as a CSR matrix
  (``indptr``/``cols``/``weights``) in one set of grown numpy buffers and
  folds the vote tally *and* the per-link distinct-flow support
  incrementally over the rows appended since the last query;
* :func:`find_problematic_links_arrays` runs Algorithm 1 as argmax + one
  ``numpy.subtract.at`` over the hit rows' hops per detection, clamped at zero
  afterwards, instead of re-scanning contribution lists;
* helpers vectorize ranking, per-flow culprit attribution and noise
  classification over the same matrix.

Every function is bit-compatible with the dict engine: votes are accumulated in
the same traversal order (an unbuffered ``numpy.add.at`` adds weights per
occurrence, left to right, exactly like the dict fold), totals are summed in
first-seen link order, ties break on the same lexicographic link ordering, and
one clamp per detection equals a clamp per subtraction (:func:`blame_kernel`)
— so the two engines produce identical detections, rankings, flow causes and
thresholds, and the dict engine remains the reference oracle in the
equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.blame import BlameConfig, BlameResult
from repro.core.noise import NoiseClassification
from repro.core.votes import EMPTY_PATH, VoteContribution, VotePolicy
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


#: hops per block of ``add_columns``' first-vote scan: small enough that what
#: the first blocks mark as voted already screens most of the later ones.
_FIRST_VOTE_BLOCK = 4096


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
    ``indptr`` delimits the rows (flows), ``weights`` holds each flow's
    per-link vote value, ``flow_ids``/``retransmissions`` its bookkeeping.
    The vote tally and the per-link distinct-flow support are an incrementally
    maintained materialized view: each query folds only the rows appended
    since the last query into running accumulators (an unbuffered
    ``np.add.at`` applies the new votes per occurrence, left to right — the
    very fold one ``bincount`` over the whole epoch performs, so the floats
    are bit-identical to a from-scratch build and to the dict engine).
    Mid-epoch queries therefore cost O(rows touched since the last query),
    not O(epoch).
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
        self._weights = np.empty(0, dtype=np.float64)
        self._flow_ids = np.empty(0, dtype=np.int64)
        self._retransmissions = np.empty(0, dtype=np.int64)
        #: flow id -> latest row over the first ``_mapped`` rows; the rest is
        #: caught up when next asked for (a snapshot starts from none).
        self._row_by_flow: Dict[int, int] = {}
        self._mapped = 0
        self._first_seen: List[int] = []  # voted link ids, first-vote order
        self._voted: set = set()
        #: ``_first_seen`` as an id array and as a mask over link ids, each
        #: caught up when next asked for (the mask holds ``_masked`` entries).
        self._voted_ids = np.empty(0, dtype=np.int64)
        self._voted_mask = np.zeros(0, dtype=bool)
        self._masked = 0
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
        if rows > len(self._weights):
            used = self._rows
            self._indptr = _grown(self._indptr, used + 1, rows, slack=1)
            self._weights = _grown(self._weights, used, rows)
            self._flow_ids = _grown(self._flow_ids, used, rows)
            self._retransmissions = _grown(self._retransmissions, used, rows)

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
        row, start = self._rows, self._hops
        stop = start + len(links)
        if stop > len(self._cols) or row >= len(self._weights):
            self._reserve(row + 1, stop)
        lids = list(map(self._index.intern, links))
        self._cols[start:stop] = lids
        voted = self._voted
        for lid in lids:
            if lid not in voted:
                voted.add(lid)
                self._first_seen.append(lid)
        self._indptr[row + 1] = stop
        self._weights[row] = weight
        self._flow_ids[row] = flow_id
        self._retransmissions[row] = retransmissions
        self._rows = row + 1
        self._hops = stop
        self._invalidate()
        return VoteContribution(
            flow_id=flow_id,
            links=tuple(links),
            weight=weight,
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

    def add_flows(self, paths: Sequence[DiscoveredPath]) -> None:
        """Record the votes of many flows in one pass (the streaming bulk path).

        State-identical to calling :meth:`add_flow` per path in list order —
        the CSR rows, the first-vote link order (which fixes the vote fold
        order, and therefore every float) and the flow bookkeeping all come
        out the same — but the per-call overhead (contribution objects, cache
        invalidation, interner dispatch) is paid once per batch; links
        cost one dict lookup per hop (:meth:`LinkIndex.hop_ids`).
        """
        if not isinstance(paths, list):
            paths = list(paths)
        if not paths:
            return
        # Column-wise extraction: every per-path field is pulled through
        # C-level iterators (map/attrgetter/chain), no Python-level loop.
        links_list = [path.links for path in paths]
        lengths = np.fromiter(map(len, links_list), dtype=np.int64, count=len(paths))
        if lengths.min() == 0:  # before the interner sees any of the run
            raise ValueError(EMPTY_PATH)
        lids = self._index.hop_ids(links_list, int(lengths.sum()))
        self.add_columns(
            lids,
            lengths,
            [path.flow_id for path in paths],
            [path.retransmissions for path in paths],
        )

    def add_columns(
        self,
        link_ids: Sequence[int],
        lengths: Sequence[int],
        flow_ids: Sequence[int],
        retransmissions: Sequence[int],
    ) -> None:
        """Record the votes of many flows given as columns (bulk arrays).

        ``link_ids`` holds the paths' hops back to back as ids already
        interned in this tally's :class:`LinkIndex`, ``lengths`` the hop
        count of each path, ``flow_ids``/``retransmissions`` one entry per
        path.  State-identical to :meth:`add_flows` over the same paths —
        the entry point for callers that never build path objects (the
        coordinator's column store, the columnar fleet core).  Raises
        ``ValueError`` before mutating anything when a path is empty, the
        columns disagree in length or an id is not in the index.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        count = len(lengths)
        if not count:
            return
        cols = np.asarray(link_ids, dtype=np.int64)
        if int(lengths.min()) <= 0:
            raise ValueError(EMPTY_PATH)
        if (
            int(lengths.sum()) != len(cols)
            or len(flow_ids) != count
            or len(retransmissions) != count
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
        self._weights[row:rows] = 1.0 if self._policy == "unit" else 1.0 / lengths
        self._flow_ids[row:rows] = flow_ids
        self._retransmissions[row:rows] = retransmissions
        self._rows, self._hops = rows, hops
        voted = self._voted
        if len(voted) != len(self._index):
            # only scan for first votes while unvoted interned links remain;
            # once every known link has voted (the steady state of a
            # long-running stream) the scan can never add anything.  Each
            # block is screened through the voted mask first, so Python only
            # walks the hops of links that had not voted before their block
            # — after the first blocks of an epoch, next to none.
            seen = self._seen_mask()
            for lo in range(0, len(cols), _FIRST_VOTE_BLOCK):
                block = cols[lo : lo + _FIRST_VOTE_BLOCK]
                fresh = block[~seen[block]]
                if len(fresh):
                    fresh = list(dict.fromkeys(fresh.tolist()))
                    seen[fresh] = True
                    voted.update(fresh)
                    self._first_seen.extend(fresh)
            self._masked = len(self._first_seen)
        self._invalidate()

    def _seen_mask(self) -> np.ndarray:
        """``mask[id]``: has the link voted — over every id of the index,
        caught up with the first votes since it was last asked for, so a call
        costs what changed, not the size of the fabric."""
        mask, size = self._voted_mask, len(self._index)
        if len(mask) < size:
            self._voted_mask = np.zeros(max(size, 2 * len(mask)), dtype=bool)
            self._voted_mask[: len(mask)] = mask
            mask = self._voted_mask
        mask[self._first_seen[self._masked :]] = True
        self._masked = len(self._first_seen)
        return mask

    def _flow_rows(self) -> Dict[int, int]:
        """The flow-id -> latest-row map, caught up with the rows appended
        since it was last asked for."""
        mapped, rows = self._mapped, self._rows
        if mapped < rows:
            self._row_by_flow.update(
                zip(self._flow_ids[mapped:rows].tolist(), range(mapped, rows))
            )
            self._mapped = rows
        return self._row_by_flow

    def row_of_flow(self, flow_id: int) -> Optional[int]:
        """Row index of ``flow_id``'s latest contribution (``None`` if unknown)."""
        return self._flow_rows().get(flow_id)

    def bump_rows(self, rows: Sequence[int], extras: Sequence[int]) -> None:
        """Bulk :meth:`bump_retransmissions` by row index.

        One cache invalidation for the whole batch instead of one per flow;
        row indices come from :meth:`row_of_flow`.
        """
        if len(rows):
            np.add.at(self._retransmissions, rows, extras)
        self._contributions_cache = None

    def bump_retransmissions(self, flow_id: int, extra: int) -> None:
        """Add ``extra`` retransmissions to ``flow_id``'s latest row.

        O(1): votes/weights are untouched (the flow's path is unchanged), so
        only the rebuilt-on-demand contribution view is invalidated, not the
        fold.  Raises ``KeyError`` for unknown flows.
        """
        self._retransmissions[self._flow_rows()[flow_id]] += extra
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
        # Unbuffered in-place add: the tail's votes land per occurrence,
        # left to right, continuing the accumulator exactly where the
        # previous fold stopped — the same left-to-right double fold one
        # bincount over the whole epoch performs (a chunk-wise partial
        # bincount would reassociate the additions and drift by ULPs).
        np.add.at(self._votes, tail_cols, np.repeat(self._weights[lo:hi], lengths))
        # Support is integer-exact in any order: count the distinct
        # (row, link) pairs of the tail rows (each row's hops are folded
        # exactly once, so pairs never repeat across folds).  No sort: a hop
        # repeats an earlier hop of its own row iff it equals the hop ``s``
        # places back and that hop is not before the row's start, for some
        # ``s`` below the longest row (at most 8 hops in any Clos; a longer
        # path stays exact and only costs more passes).
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
        """Votes per link id (length = size of the index at fold time)."""
        self._fold()
        return self._votes

    def support_array(self) -> np.ndarray:
        """Distinct voting flows per link id."""
        self._fold()
        return self._support

    def path_matrix(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR rows: ``(indptr, cols, weights)``."""
        return (
            self._indptr[: self._rows + 1],
            self._cols[: self._hops],
            self._weights[: self._rows],
        )

    def voted_ids(self) -> np.ndarray:
        """Ids of links with at least one vote, in first-vote order (kept
        until another link votes — do not mutate)."""
        if len(self._voted_ids) != len(self._first_seen):
            self._voted_ids = np.asarray(self._first_seen, dtype=np.int64)
        return self._voted_ids

    def flow_ids_array(self) -> np.ndarray:
        """Flow ids per row (a view of the buffer)."""
        return self._flow_ids[: self._rows]

    def retransmissions_array(self) -> np.ndarray:
        """Retransmission counts per row (a view of the buffer)."""
        return self._retransmissions[: self._rows]

    def record_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(flow_ids, retransmissions, lengths, link_ids)`` of every row —
        :meth:`add_columns`'s arguments read back, ``link_ids`` in this
        tally's index.  Views of the live buffers (only ``lengths`` is
        fresh): copy what must outlive the next write to the tally.
        """
        indptr, cols, _ = self.path_matrix()
        return (
            self.flow_ids_array(),
            self.retransmissions_array(),
            np.diff(indptr),
            cols,
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
        if lid is None or lid not in self._voted:
            return 0.0
        return float(self.votes_array()[lid])

    def support_of(self, link: DirectedLink) -> int:
        """Number of distinct flows that voted for ``link``."""
        lid = self._index.get(link)
        if lid is None or lid not in self._voted:
            return 0
        return int(self.support_array()[lid])

    def total_votes(self) -> float:
        """Sum of all votes cast (same fold order as the dict engine)."""
        votes = self.votes_array()
        return float(sum(votes[self.voted_ids()].tolist()))

    def links(self) -> List[DirectedLink]:
        """Links with at least one vote, sorted."""
        return sorted(map(self._index.items.__getitem__, self._first_seen))

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
                _link_table(self._index.items, ids[order], votes[order])
            )
        return list(self._items_cache)

    def as_dict(self) -> Dict[DirectedLink, float]:
        """A copy of the tally, keyed by link in first-vote order."""
        ids = self.voted_ids()
        return dict(_link_table(self._index.items, ids, self.votes_array()[ids]))

    @property
    def contributions(self) -> List[VoteContribution]:
        """Per-flow contributions, rebuilt from the CSR rows on demand."""
        if self._contributions_cache is None:
            rows = self._rows
            bounds = self._indptr[: rows + 1].tolist()
            hops = list(
                map(self._index.items.__getitem__, self._cols[: self._hops].tolist())
            )
            self._contributions_cache = [
                VoteContribution(
                    flow_id=flow_id,
                    links=tuple(hops[start:stop]),
                    weight=weight,
                    retransmissions=retransmissions,
                )
                for flow_id, start, stop, weight, retransmissions in zip(
                    self._flow_ids[:rows].tolist(),
                    bounds,
                    bounds[1:],
                    self._weights[:rows].tolist(),
                    self._retransmissions[:rows].tolist(),
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
        counts and the voted-link bookkeeping.
        """
        self._fold()
        clone = ArrayVoteTally(policy=self._policy, index=self._index)
        rows, hops = self._rows, self._hops
        clone._rows = clone._folded_rows = rows
        clone._hops = hops
        clone._cols = self._cols[:hops]
        clone._indptr = self._indptr[: rows + 1]
        clone._weights = self._weights[:rows]
        clone._flow_ids = self._flow_ids[:rows]
        clone._retransmissions = self._retransmissions[:rows].copy()
        clone._first_seen = list(self._first_seen)
        clone._voted = set(self._voted)
        clone._voted_ids = self.voted_ids()
        clone._votes = self._votes.copy()
        clone._support = self._support.copy()
        return clone

    copy = snapshot

    def extend(self, other: "ArrayVoteTally") -> None:
        """Append ``other``'s rows after this tally's own; ``other`` is only read.

        State-identical to feeding ``other``'s flows here after this tally's
        (its counts as bumped since): the CSR rows are copied, links this
        tally had not seen join the first-vote order in ``other``'s, the vote
        accumulator is *continued* over ``other``'s hops by one unbuffered
        ``np.add.at`` — the same left-to-right doubles — and ``other``'s
        support, already counted, is added (the rows are disjoint).  A flow
        both sides hold is bound to ``other``'s latest row of it.  The ordered
        merge for contiguous stretches of one epoch folded apart; both
        tallies must share the link index and the vote policy.
        """
        if other._index is not self._index or other._policy != self._policy:
            raise ValueError("extend needs a tally over the same index and policy")
        count = other._rows
        if not count:
            return
        support = other.support_array()
        self._fold()
        indptr, cols, weights = other.path_matrix()
        row, start = self._rows, self._hops
        rows, hops = row + count, start + len(cols)
        self._reserve(rows, hops)
        self._cols[start:hops] = cols
        self._indptr[row + 1 : rows + 1] = indptr[1:] + start
        self._weights[row:rows] = weights
        self._flow_ids[row:rows] = other.flow_ids_array()
        self._retransmissions[row:rows] = other.retransmissions_array()
        self._rows = self._folded_rows = rows
        self._hops = hops
        fresh = [lid for lid in other._first_seen if lid not in self._voted]
        self._voted.update(fresh)
        self._first_seen.extend(fresh)
        np.add.at(self._votes, cols, np.repeat(weights, np.diff(indptr)))
        self._support += support
        self._invalidate()

    def reordered(self, order: np.ndarray) -> "ArrayVoteTally":
        """A fresh tally holding this tally's rows in the order ``order``.

        ``order`` is a permutation of the row indices.  The result is
        state-identical to a new tally fed the same flows in that order (one
        CSR gather and one :meth:`add_columns`: same first-vote link order,
        same fold order, hence the same doubles), except that every flow stays
        bound to the *same record* as here — the flow -> row map is carried
        through the permutation instead of being re-derived from the new row
        order (a later :meth:`snapshot` does re-derive its own, so bind
        updates through the live tally).  This tally and its snapshots are
        left untouched.
        """
        order = np.asarray(order, dtype=np.int64)
        clone = ArrayVoteTally(policy=self._policy, index=self._index)
        if not len(order):
            return clone
        rows = self._rows
        flat, _, lengths = _hops_of_rows(self._indptr[: rows + 1], order)
        clone.add_columns(
            self._cols[flat],
            lengths,
            self._flow_ids[order],
            self._retransmissions[order],
        )
        bound = self._flow_rows()
        if len(bound) != rows:
            # some flow was traced more than once: the record it is bound to
            # need not be its last row in the new order (as add_columns took it)
            new_row = np.empty(rows, dtype=np.int64)
            new_row[order] = np.arange(rows, dtype=np.int64)
            old_rows = np.fromiter(bound.values(), dtype=np.int64, count=len(bound))
            clone._row_by_flow = dict(zip(bound.keys(), new_row[old_rows].tolist()))
            clone._mapped = rows
        return clone


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
    unbuffered ``np.subtract.at`` in (row, hop) order, then clamps the touched
    ids at 0.  ``weights`` must be non-negative (``ValueError`` otherwise): an
    id's votes then only fall, so the dict engine's ``max(0.0, v - w)`` per
    subtraction equals the unclamped value until that first reaches zero or
    below and is 0 from then on, while the unclamped value stays non-positive
    — one clamp at the end yields the same doubles, bit for bit.
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
    #: voted link ids in first-vote order, then — position for position —
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
    """
    config = config or BlameConfig()
    total_votes = tally.total_votes()
    threshold_votes = config.threshold_fraction * total_votes
    votes = tally.votes_array()
    sort_ranks = tally.index.sort_ranks()
    detected, votes_at, final = [], [], votes
    if total_votes > 0.0:
        indptr, cols, weights = tally.path_matrix()
        detected, votes_at, final = blame_kernel(
            votes,
            indptr,
            cols,
            weights,
            tally.support_array() >= config.min_flow_support,
            sort_ranks,
            threshold_votes,
            config,
        )
    ids = tally.voted_ids()
    detected_links = list(map(tally.index.items.__getitem__, detected))
    return BlameResult(
        detected_links=detected_links,
        votes_at_detection=dict(zip(detected_links, votes_at)),
        threshold_votes=threshold_votes,
        final_votes=None,
        arrays=VerdictArrays(
            tally.index, ids, votes[ids], final[ids], detected, votes_at, sort_ranks
        ),
    )


# ----------------------------------------------------------------------
# vectorized ranking, attribution and noise classification
# ----------------------------------------------------------------------
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
    indptr, cols, _ = tally.path_matrix()
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
    indptr, cols, _ = tally.path_matrix()
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
