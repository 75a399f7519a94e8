"""Binary evidence transport for the process-backed sharded service.

Two pieces live here, both built around the same column-wise extraction the
vectorized ingest path already uses (:meth:`Zero07Service.ingest_batch`):

* :class:`WireEncoder` / :class:`WireDecoder` — a compact batch codec for
  single-epoch runs of :class:`~repro.api.events.PathEvidence` /
  :class:`~repro.api.events.RetransmissionEvidence`.  Every per-event field
  travels as a flat numpy buffer (one ``tobytes`` per column, no per-event
  pickling), and the strings — host names, IPs, ``"src->dst"`` links — are
  interned once per *connection*: each message carries only the table entries
  the receiving stream has not seen yet, so a steady-state message is pure
  integers.  The decoder rebuilds one ``DirectedLink``/string object per
  table entry and every decoded path shares them (a memory saving; interning
  resolves equal links alike, shared or not).

* :class:`EvidenceColumnStore` — the coordinator-side accumulator behind
  parallel finalize.  As the sharded facade routes bulk runs to workers it
  folds the same runs into one :class:`~repro.core.arrays.ArrayVoteTally`
  per open epoch — the very class (and the very incremental fold) an
  unsharded service uses — so a merged epoch tally is a snapshot of it: no
  worker round-trip, no per-path replay, bit-identical to the replay an
  inline deployment performs.  Any delivery the bulk path cannot prove
  clean (reordering, duplicates, pending buffers, per-event ingest) marks
  the epoch *dirty* and the facade falls back to gather-and-replay, which
  remains the correctness oracle.

The proofs that make a run safe to fold in bulk (:func:`bulk_admissible`) and
the per-flow aggregation of its count updates (:func:`aggregate_updates`) are
shared with :meth:`Zero07Service.ingest_batch`.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.events import Evidence, PathEvidence, RetransmissionEvidence
from repro.core.arrays import ArrayVoteTally, ItemIndex, LinkIndex
from repro.core.votes import MAX_HOPS, PathTooLongError, VotePolicy, check_hop_counts
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink

WIRE_MAGIC = b"RW01"

#: header layout: magic, epoch, shard, n_events, n_paths, total_hops,
#: link-table [lo, hi) delta range, name-table [lo, hi) delta range, and the
#: byte lengths of the two string blobs that carry the delta entries.
_HEADER = struct.Struct("<4sqqiiiiiiiii")


class WireProtocolError(ValueError):
    """A message violated the framing or the per-stream table discipline."""


def _attr_i64(items, name: str) -> np.ndarray:
    return np.fromiter(
        map(operator.attrgetter(name), items), dtype=np.int64, count=len(items)
    )


def seqs_of(run: Sequence[Evidence]) -> np.ndarray:
    """The run's sequence numbers (``None`` encoded as -1).

    Real sequence numbers are non-negative, so a seq-less update can never
    pass :func:`bulk_admissible`: a -1 that leads the run is refused outright,
    one further in breaks the strictly-increasing proof.
    """
    try:
        return _attr_i64(run, "seq")
    except TypeError:  # a seq-less RetransmissionEvidence
        return np.fromiter(
            (-1 if e.seq is None else e.seq for e in run),
            dtype=np.int64,
            count=len(run),
        )


class WireEncoder:
    """Encodes evidence runs into per-stream delta-interned messages.

    One encoder serves many output *streams* (one per worker connection);
    string/link tables are global to the encoder, but each stream remembers
    how much of each table its decoder has already seen, so messages stay
    self-contained per connection while interning work is shared.

    The link table may be an externally shared :class:`LinkIndex` (the
    sharded facade passes its merge-side index) so link ids line up with the
    coordinator's own column store for free.
    """

    def __init__(
        self, streams: int = 1, link_index: Optional[LinkIndex] = None
    ) -> None:
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self._links = link_index if link_index is not None else LinkIndex()
        self._names = ItemIndex()
        self._links_sent = [0] * streams
        self._names_sent = [0] * streams

    @property
    def link_index(self) -> LinkIndex:
        """The shared link interner (ids appear verbatim on the wire)."""
        return self._links

    def reset_stream(self, stream: int) -> None:
        """Forget what ``stream``'s decoder has seen (peer reconnected).

        A decoder is per-connection state; after a reconnect the new decoder
        starts with empty tables, so the encoder must replay the full table
        prefix in its next message.  Interning work is retained — only the
        per-stream sent watermarks rewind.
        """
        self._links_sent[stream] = 0
        self._names_sent[stream] = 0

    def encode_run(
        self,
        stream: int,
        shard: int,
        epoch: int,
        run: Sequence[Evidence],
        seqs: Optional[np.ndarray] = None,
    ) -> bytes:
        """Encode one single-epoch evidence run for ``stream``'s decoder.

        The run must contain only :class:`PathEvidence` and
        :class:`RetransmissionEvidence` events of ``epoch`` (the bulk-routing
        invariant the sharded facade already enforces).
        """
        paths = [e.path for e in run if type(e) is PathEvidence]
        n_events = len(run)
        n_paths = len(paths)
        if seqs is None:
            seqs = seqs_of(run)
        if n_paths == n_events:
            kinds = np.zeros(n_events, dtype=np.uint8)
            updates: List[RetransmissionEvidence] = []
        else:
            kinds = np.fromiter(
                (type(e) is RetransmissionEvidence for e in run),
                dtype=np.uint8,
                count=n_events,
            )
            updates = [e for e in run if type(e) is RetransmissionEvidence]
            if n_paths + len(updates) != n_events:
                raise WireProtocolError("run contains non-evidence events")

        links_list = [p.links for p in paths]
        lengths = np.fromiter(
            map(len, links_list), dtype=np.int64, count=n_paths
        ).astype(np.int32)
        total_hops = int(lengths.sum())
        lids = self._links.hop_ids(links_list, total_hops)

        five_tuples = [p.five_tuple for p in paths]
        name_ids = self._names.fast_ids(
            [p.src_host for p in paths]
            + [p.dst_host for p in paths]
            + [ft.src_ip for ft in five_tuples]
            + [ft.dst_ip for ft in five_tuples],
            dtype=np.int32,
        )

        link_lo = self._links_sent[stream]
        link_hi = len(self._links)
        name_lo = self._names_sent[stream]
        name_hi = len(self._names)
        links_blob = "\x00".join(
            f"{l.src}->{l.dst}" for l in self._links.items[link_lo:link_hi]
        ).encode("utf-8")
        names_blob = "\x00".join(self._names.items[name_lo:name_hi]).encode(
            "utf-8"
        )
        self._links_sent[stream] = link_hi
        self._names_sent[stream] = name_hi

        out = bytearray(
            _HEADER.pack(
                WIRE_MAGIC,
                epoch,
                shard,
                n_events,
                n_paths,
                total_hops,
                link_lo,
                link_hi,
                name_lo,
                name_hi,
                len(links_blob),
                len(names_blob),
            )
        )
        out += links_blob
        out += names_blob
        out += kinds.tobytes()
        out += np.ascontiguousarray(seqs, dtype=np.int64).tobytes()
        out += _attr_i64(paths, "flow_id").tobytes()
        out += _attr_i64(paths, "retransmissions").tobytes()
        out += _attr_i64(paths, "epoch").tobytes()
        out += lengths.tobytes()
        out += lids.astype(np.int32).tobytes()
        out += name_ids.tobytes()
        out += np.fromiter(
            map(operator.attrgetter("src_port"), five_tuples),
            dtype=np.int32,
            count=n_paths,
        ).tobytes()
        out += np.fromiter(
            map(operator.attrgetter("dst_port"), five_tuples),
            dtype=np.int32,
            count=n_paths,
        ).tobytes()
        out += np.fromiter(
            map(operator.attrgetter("protocol"), five_tuples),
            dtype=np.int32,
            count=n_paths,
        ).tobytes()
        out += np.fromiter(
            map(operator.attrgetter("complete"), paths),
            dtype=np.uint8,
            count=n_paths,
        ).tobytes()
        if updates:
            out += _attr_i64(updates, "flow_id").tobytes()
            out += _attr_i64(updates, "retransmissions").tobytes()
        return bytes(out)


class WireRun:
    """One decoded message as raw columns — no per-event objects yet.

    The cheap half of decoding: header fields plus numpy views over the
    message buffer (which the run keeps alive), with the decoder's shared
    link/name tables referenced for the expensive half.  Hot consumers (the
    fleet analyzer's columnar ingest) read the arrays directly; anything
    that needs real :class:`~repro.api.events.Evidence` objects calls
    :meth:`materialize`, which is exactly the loop ``WireDecoder.decode``
    always performed.  The tables are append-only, so a retained run can be
    materialized at any later point of the stream.
    """

    __slots__ = (
        "shard",
        "epoch",
        "n_events",
        "n_paths",
        "kinds",
        "seqs",
        "flow_ids",
        "retrans",
        "path_epochs",
        "lengths",
        "lids",
        "src_hosts",
        "dst_hosts",
        "src_ips",
        "dst_ips",
        "src_ports",
        "dst_ports",
        "protocols",
        "complete",
        "upd_flows",
        "upd_counts",
        "links_table",
        "names_table",
        "nbytes",
        "_data",
    )

    @property
    def first_seq(self) -> int:
        """The run's first sequence number (-1 for an empty run)."""
        return int(self.seqs[0]) if self.n_events else -1

    @property
    def last_seq(self) -> int:
        """The run's last sequence number (-1 for an empty run)."""
        return int(self.seqs[-1]) if self.n_events else -1

    def path_seqs(self) -> np.ndarray:
        """Sequence numbers of just the path events, in run order."""
        if self.n_paths == self.n_events:
            return self.seqs
        return self.seqs[self.kinds == 0]

    def update_seqs(self) -> np.ndarray:
        """Sequence numbers of just the count updates, in run order."""
        if self.n_paths == self.n_events:
            return self.seqs[:0]
        return self.seqs[self.kinds != 0]

    def materialize(self) -> List[Evidence]:
        """Rebuild the run's evidence events (the expensive decode half)."""
        epoch = self.epoch
        names = self.names_table
        links_table = self.links_table
        flow_ids = self.flow_ids.tolist()
        retrans = self.retrans.tolist()
        path_epochs = self.path_epochs.tolist()
        lengths = self.lengths.tolist()
        lids = self.lids.tolist()
        src_hosts = self.src_hosts.tolist()
        dst_hosts = self.dst_hosts.tolist()
        src_ips = self.src_ips.tolist()
        dst_ips = self.dst_ips.tolist()
        src_ports = self.src_ports.tolist()
        dst_ports = self.dst_ports.tolist()
        protocols = self.protocols.tolist()
        complete = self.complete.tolist()
        paths: List[DiscoveredPath] = []
        pos = 0
        for i in range(self.n_paths):
            length = lengths[i]
            paths.append(
                DiscoveredPath(
                    flow_id=flow_ids[i],
                    five_tuple=FiveTuple(
                        src_ip=names[src_ips[i]],
                        dst_ip=names[dst_ips[i]],
                        src_port=src_ports[i],
                        dst_port=dst_ports[i],
                        protocol=protocols[i],
                    ),
                    src_host=names[src_hosts[i]],
                    dst_host=names[dst_hosts[i]],
                    links=[links_table[j] for j in lids[pos : pos + length]],
                    complete=bool(complete[i]),
                    retransmissions=retrans[i],
                    epoch=path_epochs[i],
                )
            )
            pos += length

        seqs_list = self.seqs.tolist()
        n_updates = self.n_events - self.n_paths
        if n_updates == 0:
            return [
                PathEvidence(epoch, seq, path)
                for seq, path in zip(seqs_list, paths)
            ]
        upd_flows = self.upd_flows.tolist()
        upd_counts = self.upd_counts.tolist()
        events: List[Evidence] = []
        append = events.append
        path_iter = iter(paths)
        upd_i = 0
        for kind, seq in zip(self.kinds.tolist(), seqs_list):
            if kind:
                append(
                    RetransmissionEvidence(
                        epoch,
                        upd_flows[upd_i],
                        upd_counts[upd_i],
                        None if seq < 0 else seq,
                    )
                )
                upd_i += 1
            else:
                append(PathEvidence(epoch, seq, next(path_iter)))
        return events


class WireDecoder:
    """Rebuilds evidence events from one stream of encoder messages.

    Stateful by design: the decoder accumulates the stream's link/name tables
    from each message's delta section, so messages must be decoded in the
    order they were encoded for this stream (the per-worker pipe is FIFO, so
    the discipline holds by construction).
    """

    def __init__(self) -> None:
        self._links: List[DirectedLink] = []
        self._names: List[str] = []

    @property
    def links_table(self) -> List[DirectedLink]:
        """The stream's accumulated link table (append-only; do not mutate)."""
        return self._links

    def _extend_tables(
        self, link_lo: int, links_blob: bytes, name_lo: int, names_blob: bytes
    ) -> None:
        if link_lo != len(self._links) or name_lo != len(self._names):
            raise WireProtocolError(
                f"table delta out of order: link {link_lo}/{len(self._links)}, "
                f"name {name_lo}/{len(self._names)}"
            )
        if links_blob:
            for text in links_blob.decode("utf-8").split("\x00"):
                src, _, dst = text.partition("->")
                self._links.append(DirectedLink(src, dst))
        if names_blob:
            self._names.extend(names_blob.decode("utf-8").split("\x00"))

    def decode_columns(self, data) -> WireRun:
        """Decode one message into a :class:`WireRun` of raw columns.

        Validates the header and the hop counts (``PathTooLongError``), then
        folds the message's table deltas into the stream state, but builds
        no event objects — column views over the input buffer only.  The
        returned run keeps ``data`` alive.
        """
        data = memoryview(data)
        (
            magic,
            epoch,
            shard,
            n_events,
            n_paths,
            total_hops,
            link_lo,
            _link_hi,
            name_lo,
            _name_hi,
            links_len,
            names_len,
        ) = _HEADER.unpack_from(data, 0)
        if magic != WIRE_MAGIC:
            raise WireProtocolError(f"bad magic {magic!r}")
        blobs = _HEADER.size
        offset = blobs + links_len + names_len

        run = WireRun()
        run.shard = shard
        run.epoch = epoch
        run.n_events = n_events
        run.n_paths = n_paths
        run.links_table = self._links
        run.names_table = self._names
        run.nbytes = len(data)
        run._data = data

        def column(dtype, count):
            nonlocal offset
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            offset += arr.nbytes
            return arr

        run.kinds = column(np.uint8, n_events)
        run.seqs = column(np.int64, n_events)
        run.flow_ids = column(np.int64, n_paths)
        run.retrans = column(np.int64, n_paths)
        run.path_epochs = column(np.int64, n_paths)
        run.lengths = column(np.int32, n_paths)
        run.lids = column(np.int32, total_hops)
        run.src_hosts = column(np.int32, n_paths)
        run.dst_hosts = column(np.int32, n_paths)
        run.src_ips = column(np.int32, n_paths)
        run.dst_ips = column(np.int32, n_paths)
        run.src_ports = column(np.int32, n_paths)
        run.dst_ports = column(np.int32, n_paths)
        run.protocols = column(np.int32, n_paths)
        run.complete = column(np.uint8, n_paths)
        n_updates = n_events - n_paths
        run.upd_flows = column(np.int64, n_updates)
        run.upd_counts = column(np.int64, n_updates)
        if n_paths and int(run.lengths.max()) > MAX_HOPS:
            raise PathTooLongError(int(run.lengths.max()))
        self._extend_tables(
            link_lo,
            bytes(data[blobs : blobs + links_len]),
            name_lo,
            bytes(data[blobs + links_len : blobs + links_len + names_len]),
        )
        return run

    def decode(
        self, data
    ) -> Tuple[int, int, List[Evidence], np.ndarray]:
        """Decode one message into ``(shard, epoch, events, seqs)``."""
        run = self.decode_columns(data)
        return run.shard, run.epoch, run.materialize(), run.seqs


class LinkRemap:
    """Maps one decoder stream's link ids onto a shared :class:`LinkIndex`.

    The decoder's table and the target index are both append-only, so the
    mapping is a growable integer gather table: entries are interned into the
    index the first time their table position appears, and every later
    message remaps with one numpy fancy-index.  This is what lets a columnar
    consumer fold wire runs from many independent streams into one merged
    column store without touching per-event objects.
    """

    def __init__(self, decoder: WireDecoder, index: LinkIndex) -> None:
        self._table = decoder.links_table
        self._index = index
        self._map = np.zeros(0, dtype=np.int64)

    def ids(self, lids: np.ndarray) -> np.ndarray:
        """Translate wire link ids into target-index ids (int64 copy)."""
        table = self._table
        if len(self._map) < len(table):
            fresh = self._index.fast_ids(table[len(self._map) :])
            self._map = np.concatenate([self._map, fresh])
        return self._map[lids]


# ----------------------------------------------------------------------
# bulk admission (shared by the service and the merged column store)
# ----------------------------------------------------------------------
def run_columns(run: Sequence[Evidence], seqs: np.ndarray):
    """Split a single-epoch run into its paths and its count-update columns.

    Returns ``(paths, path_seqs, upd_flows, upd_seqs, upd_counts)`` — the
    :class:`DiscoveredPath` objects and plain lists — or ``None`` when the
    run holds anything but exact :class:`PathEvidence` /
    :class:`RetransmissionEvidence` instances (subclasses and foreign kinds
    belong to the per-event path, which handles or loudly rejects them).
    """
    paths = [e.path for e in run if type(e) is PathEvidence]
    if len(paths) == len(run):
        return paths, seqs.tolist(), [], [], []
    updates = [e for e in run if type(e) is RetransmissionEvidence]
    if len(paths) + len(updates) != len(run):
        return None
    is_update = np.fromiter(
        (type(e) is RetransmissionEvidence for e in run), dtype=bool, count=len(run)
    )
    return (
        paths,
        seqs[~is_update].tolist(),
        [e.flow_id for e in updates],
        seqs[is_update].tolist(),
        [e.retransmissions for e in updates],
    )


def bulk_admissible(
    seqs: np.ndarray,
    max_seq: int,
    lengths: np.ndarray,
    path_flows: Iterable[int],
    path_seqs: Iterable[int],
    upd_flows: Sequence[int],
    upd_seqs: Sequence[int],
    seen: Optional[Set[int]] = None,
) -> bool:
    """Whether a single-epoch run may be folded in bulk; mutates nothing.

    Bulk folding applies the run's paths first and its count updates after,
    which equals the interleaved per-event order only if (a) the run is in
    strictly increasing sequence order and duplicate-free against everything
    already seen — proven in O(1) when it starts above ``max_seq``, and for a
    *late* run (one that lands at or below the watermark) by one disjointness
    test against ``seen``, the epoch's seen sequence numbers, when the caller
    keeps them (without ``seen`` a late run is never admissible) — and (b) no
    updated flow is traced *again* later in the run (per-event would bump the
    earlier record, bulk the final one).  ``lengths`` holds each path's hop
    count; a path without links or with too many is malformed for every
    ingest path, so it raises here (:func:`~repro.core.votes.check_hop_counts`),
    before the caller has touched any state.
    """
    if len(lengths):
        check_hop_counts(int(lengths.min()), int(lengths.max()))
    first = int(seqs[0])
    if first < 0:  # a seq-less update leads the run (see seqs_of)
        return False
    if first <= max_seq and (seen is None or not seen.isdisjoint(seqs.tolist())):
        return False
    if not bool((np.diff(seqs) > 0).all()):
        return False
    if upd_flows:
        seq_of_last_path = dict(zip(path_flows, path_seqs)).get
        return not any(
            seq_of_last_path(flow, -1) > seq for flow, seq in zip(upd_flows, upd_seqs)
        )
    return True


def aggregate_updates(
    flows: Sequence[int], counts: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Sum a run's retransmission updates per flow: ``(flows, totals)``.

    Count updates never move votes and integer sums commute, so one bump per
    *changed flow* is state-identical to one per event.
    """
    unique_flows, inverse = np.unique(
        np.asarray(flows, dtype=np.int64), return_inverse=True
    )
    totals = np.bincount(inverse, weights=np.asarray(counts, dtype=np.float64))
    return unique_flows.tolist(), totals.astype(np.int64).tolist()


def bind_updates(
    tally, flows: List[int], extras: List[int], unbound: Dict[int, int]
) -> Tuple[List[int], List[int]]:
    """The tally rows :func:`aggregate_updates`' totals bump, and those
    totals; a flow the tally holds no row of adds its total to ``unbound``."""
    rows = list(map(tally.flow_rows().get, flows))
    if None not in rows:
        return rows, extras
    for flow, row, extra in zip(flows, rows, extras):
        if row is None:
            unbound[flow] = unbound.get(flow, 0) + extra
    known = [i for i, row in enumerate(rows) if row is not None]
    return [rows[i] for i in known], [extras[i] for i in known]


# ----------------------------------------------------------------------
# coordinator-side merged tallies
# ----------------------------------------------------------------------
class TallyLane:
    """A contiguous stretch of one epoch's sequence space, folded as it arrives.

    The store keeps one per open epoch — the rows from the epoch's start on.
    A *side* lane (:meth:`EvidenceColumnStore.open_lane`) takes a stretch that
    arrives before the rows preceding it, so its fold is paid on arrival too,
    and joins the epoch's rows later, in any order
    (:meth:`EvidenceColumnStore.join`).
    """

    __slots__ = ("tally", "first_seq", "max_seq", "waiting", "clean")

    def __init__(self, tally: ArrayVoteTally) -> None:
        self.tally = tally
        self.first_seq = self.max_seq = -1
        #: a side lane's count updates for flows it holds no row of, summed
        #: per flow: they bind to the rows before the lane when it joins.
        self.waiting: Dict[int, int] = {}
        #: every run so far passed the bulk proofs (a side lane's verdict
        #: waits for the join; an epoch's own lane goes dirty at once).
        self.clean = True


class EvidenceColumnStore:
    """Folds merged epoch tallies as bulk runs stream through the facade.

    The facade appends each committed bulk stretch *before* partitioning it to
    workers; integer vote units make the fold order-free, so the merged tally
    is bit-identical to an unsharded service's over the same evidence —
    which is the whole argument behind :meth:`build_tally`.  Anything the
    bulk path cannot prove duplicate-free and bound like the per-event path
    (sequence regressions, pending buffers, per-event ingestion, restores)
    marks the epoch dirty, and :meth:`build_tally` returns ``None`` so the
    caller replays gathered evidence instead — the two paths agree
    bit-for-bit whenever both apply.
    """

    def __init__(
        self, link_index: LinkIndex, policy: VotePolicy = "inverse_hops"
    ) -> None:
        self._links = link_index
        self._policy: VotePolicy = policy
        self._lanes: Dict[int, TallyLane] = {}
        self._dirty: set = set()

    # ------------------------------------------------------------------
    def mark_dirty(self, epoch: int) -> None:
        """Disqualify ``epoch`` from column-store finalize (replay instead)."""
        self.pop(epoch)
        self._dirty.add(epoch)

    def is_clean(self, epoch: int) -> bool:
        """Whether the epoch's merged tally can be built from the columns."""
        return epoch not in self._dirty

    def pop(self, epoch: int) -> None:
        """Release the epoch's buffers (after its final report)."""
        self._lanes.pop(epoch, None)
        self._dirty.discard(epoch)

    def open_lane(self) -> TallyLane:
        """A side lane for a stretch that arrived ahead of the rows before it."""
        return TallyLane(ArrayVoteTally(self._policy, self._links))

    def _own_lane(self, epoch: int) -> TallyLane:
        return self._lanes.get(epoch) or self._lanes.setdefault(epoch, self.open_lane())

    # ------------------------------------------------------------------
    def _admit(
        self,
        epoch: int,
        side: Optional[TallyLane],
        seqs: np.ndarray,
        lengths: np.ndarray,
        path_flows: Iterable[int],
        path_seqs: Iterable[int],
        upd_flows: Sequence[int],
        upd_seqs: Sequence[int],
        upd_counts: Sequence[int],
        add_paths: Callable[[ArrayVoteTally], None],
    ) -> None:
        """Validate one run, then fold it into the epoch's own lane or ``side``.

        The preconditions are the service's (:func:`bulk_admissible`); a
        violation marks the epoch dirty — or the side lane, which then
        dirties the epoch it joins — so a half-applied run can never leak
        into a merged report.  The fold is paid here, when the run is
        appended, so :meth:`build_tally` stays a snapshot.
        """
        if not len(seqs) or epoch in self._dirty:
            return
        lane = side or self._own_lane(epoch)
        if not lane.clean:
            return
        tally = lane.tally
        try:
            lane.clean = bulk_admissible(
                seqs, lane.max_seq, lengths, path_flows, path_seqs, upd_flows, upd_seqs
            )
        except ValueError:
            # a path no vote can be cast from: the shard service raises on
            # it, and whatever state survives that is per-event territory.
            lane.clean = False
        if lane.clean:
            add_paths(tally)
            # updated flows without rows wait on the lane: a side lane's are
            # before it (the join binds them); the epoch's own lane never saw
            # them (the facade routed through older per-event state): replay.
            rows, extras = bind_updates(
                tally, *aggregate_updates(upd_flows, upd_counts), lane.waiting
            )
            lane.clean = side is not None or not lane.waiting
        if not lane.clean:
            if not side:
                self.mark_dirty(epoch)
            return
        tally.bump_rows(rows, extras)
        tally.votes_array()
        if lane.first_seq < 0:
            lane.first_seq = int(seqs[0])
        lane.max_seq = int(seqs[-1])

    def append_run(
        self,
        epoch: int,
        run: Sequence[Evidence],
        seqs: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one committed bulk stretch of evidence objects."""
        if epoch in self._dirty:
            return
        if seqs is None:
            seqs = seqs_of(run)
        columns = run_columns(run, seqs)
        if columns is None:
            self.mark_dirty(epoch)
            return
        paths, path_seqs, upd_flows, upd_seqs, upd_counts = columns
        self._admit(
            epoch,
            None,
            seqs,
            np.fromiter(
                map(len, map(operator.attrgetter("links"), paths)),
                dtype=np.int64,
                count=len(paths),
            ),
            map(operator.attrgetter("flow_id"), paths),
            path_seqs,
            upd_flows,
            upd_seqs,
            upd_counts,
            lambda tally: tally.add_flows(paths, path_seqs),
        )

    def append_columns(
        self, epoch: int, run: WireRun, link_ids: np.ndarray, lane: Optional[TallyLane] = None
    ) -> None:
        """Fold one committed wire run, object-free.

        The columnar twin of :meth:`append_run`, fed straight from a
        :class:`WireRun`'s arrays plus pre-remapped link ids
        (:meth:`LinkRemap.ids` of ``run.lids``) — no :class:`DiscoveredPath`
        objects are ever built.  With ``lane``, a side lane of this store,
        the run continues that lane instead of the epoch's own rows.
        """
        path_seqs = run.path_seqs()
        self._admit(
            epoch,
            lane,
            run.seqs,
            run.lengths,
            run.flow_ids.tolist(),
            path_seqs.tolist(),
            run.upd_flows.tolist(),
            run.update_seqs().tolist(),
            run.upd_counts,
            lambda tally: tally.add_columns(
                link_ids, run.lengths, run.flow_ids, run.retrans, path_seqs
            ),
        )

    def join(self, epoch: int, lane: TallyLane) -> None:
        """Add a side lane's rows to the epoch's own, in whatever order the
        lanes come.

        The lane's waiting count updates bind to the epoch's rows, then the
        tallies merge by :meth:`ArrayVoteTally.extend`, which adds the
        lane's votes and support.  A lane that shares a sequence number
        with the epoch's rows, holds an unproven run or waits on a flow
        nobody traced marks the epoch dirty instead.
        """
        if epoch in self._dirty:
            return
        own = self._own_lane(epoch)
        rows = list(map(own.tally.flow_rows().get, lane.waiting))
        seqs = own.tally.seqs_array()
        if (
            not lane.clean
            or None in rows
            or (
                lane.first_seq <= own.max_seq
                and bool(((seqs >= lane.first_seq) & (seqs <= lane.max_seq)).any())
            )
        ):
            self.mark_dirty(epoch)
            return
        own.tally.bump_rows(rows, list(lane.waiting.values()))
        own.tally.extend(lane.tally)
        own.max_seq = max(own.max_seq, lane.max_seq)

    # ------------------------------------------------------------------
    def build_tally(self, epoch: int, final: bool = False) -> Optional[ArrayVoteTally]:
        """The epoch's merged tally, or ``None`` when replay is required.

        Reports from it are bit-identical to replaying the epoch's evidence
        through a fresh :class:`ArrayVoteTally` — it *is* such a tally, fed
        run by run — and it is independent of later appends (a snapshot; an
        empty tally for an epoch the store never saw).  The ``final`` build
        hands over the live tally itself and forgets the epoch: nothing is
        appended to a closed epoch, so nothing is copied.
        """
        if epoch in self._dirty:
            return None
        lane = self._lanes.pop(epoch, None) if final else self._lanes.get(epoch)
        if lane is None:
            return ArrayVoteTally(self._policy, self._links)
        return lane.tally if final else lane.tally.snapshot()
