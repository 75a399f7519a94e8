"""Binary evidence transport, and the columnar fleet core's accumulator.

Two pieces live here, both built around the same column-wise extraction the
vectorized ingest path already uses (:meth:`Zero07Service.ingest_batch`):

* :class:`WireEncoder` / :class:`WireDecoder` — a compact batch codec for
  single-epoch runs of :class:`~repro.api.events.PathEvidence` /
  :class:`~repro.api.events.RetransmissionEvidence`, spoken by fleet agents
  and by the process-backed shard executor.  Every per-event field travels
  as a flat numpy buffer (one ``tobytes`` per column, no per-event
  pickling), and the strings — host names, IPs, ``"src->dst"`` links — are
  interned once per *connection*: each message carries only the table
  entries the receiving stream has not seen yet, so a steady-state message
  is pure integers.  The decoder checks a whole message — counts, exact
  length, event kinds, path lengths, table ranges, every id — before its
  tables grow, so damage is a :class:`WireProtocolError`, never different
  blame.  It rebuilds one ``DirectedLink``/string object per table entry
  and every decoded path shares them (a memory saving; interning resolves
  equal links alike, shared or not).

* :class:`EvidenceColumnStore` — the accumulator of the columnar fleet core
  (:class:`~repro.fleet.analyzer.ColumnarIngestCore`).  It folds each
  committed run into one :class:`~repro.core.arrays.ArrayVoteTally` per open
  epoch — the very class (and the very incremental fold) a service uses — so
  an epoch's tally is a snapshot of it, bit-identical to a replay.  Any
  delivery the bulk path cannot prove clean (reordering, duplicates, updates
  ahead of their path) marks the epoch *dirty*, and the core replays it.

The proofs that make a run safe to fold in bulk (:func:`bulk_admissible`) and
the per-flow aggregation of its count updates (:func:`aggregate_updates`) are
shared with :meth:`Zero07Service.ingest_batch`.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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


#: bytes one path adds to a message: flow id, count and path epoch (int64),
#: hop count, four name ids, two ports and the protocol (int32), ``complete``.
_PATH_BYTES = 3 * 8 + 8 * 4 + 1


class WireProtocolError(ValueError):
    """A message violated the framing or the per-stream table discipline."""


def _table_delta(blob, lo: int, hi: int, size: int, table: str) -> List[str]:
    """The entries ``[lo, hi)`` a message adds to a stream table of ``size``."""
    if lo != size or hi < lo:
        raise WireProtocolError(
            f"table delta out of order: {table} [{lo}, {hi}) onto {size} entries"
        )
    try:
        entries = bytes(blob).decode("utf-8").split("\x00") if hi > lo else []
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"{table} table delta is not UTF-8") from exc
    if len(entries) != hi - lo or (hi == lo and len(blob)):
        raise WireProtocolError(
            f"{table} table delta holds {len(entries)} entries for [{lo}, {hi})"
        )
    return entries


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

    ``link_index`` lets a new encoder keep an earlier one's link table (the
    process executor's restore resets its streams that way), so interning
    work survives; only one thread at a time may intern into a table.
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
        """The link interner (ids appear verbatim on the wire)."""
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
        :class:`RetransmissionEvidence` events of ``epoch`` (what
        :func:`~repro.api.service.iter_evidence_runs` segments a batch into).
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

    def decode_columns(self, data) -> WireRun:
        """Decode one message into a :class:`WireRun` of raw columns.

        Checks the whole message before the stream's tables grow: the
        header's counts against the exact length, the event kinds, the path
        lengths (``PathTooLongError`` past 8 hops), the table-delta ranges
        and every link and name id — any damage raises
        :class:`WireProtocolError`.  Then folds the message's table deltas
        into the stream state, but builds no event objects — column views
        over the input buffer only.  The returned run keeps ``data`` alive.
        """
        data = memoryview(data)
        if len(data) < _HEADER.size:
            raise WireProtocolError(f"a {len(data)}-byte message has no header")
        (
            magic,
            epoch,
            shard,
            n_events,
            n_paths,
            total_hops,
            link_lo,
            link_hi,
            name_lo,
            name_hi,
            links_len,
            names_len,
        ) = _HEADER.unpack_from(data, 0)
        if magic != WIRE_MAGIC:
            raise WireProtocolError(f"bad magic {magic!r}")
        n_updates = n_events - n_paths
        if min(n_paths, n_updates, total_hops, links_len, names_len) < 0:
            raise WireProtocolError(
                f"bad counts: {n_paths} paths of {n_events} events, "
                f"{total_hops} hops, table blobs of {links_len}/{names_len} bytes"
            )
        blobs = _HEADER.size
        body = offset = blobs + links_len + names_len
        size = (
            body
            + 9 * n_events
            + _PATH_BYTES * n_paths
            + 4 * total_hops
            + 16 * n_updates
        )
        if len(data) != size:
            raise WireProtocolError(
                f"a {len(data)}-byte message whose header describes {size} bytes"
            )

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
        name_ids = column(np.int32, 4 * n_paths)
        run.src_hosts, run.dst_hosts, run.src_ips, run.dst_ips = name_ids.reshape(
            4, n_paths
        )
        run.src_ports = column(np.int32, n_paths)
        run.dst_ports = column(np.int32, n_paths)
        run.protocols = column(np.int32, n_paths)
        run.complete = column(np.uint8, n_paths)
        run.upd_flows = column(np.int64, n_updates)
        run.upd_counts = column(np.int64, n_updates)
        kinds, lengths = run.kinds, run.lengths
        if n_events and (
            int(kinds.max()) > 1 or int(np.count_nonzero(kinds)) != n_updates
        ):
            raise WireProtocolError(
                f"event kinds disagree with {n_paths} paths of {n_events} events"
            )
        if n_paths:
            if int(lengths.max()) > MAX_HOPS:
                raise PathTooLongError(int(lengths.max()))
            if int(lengths.min()) < 1:
                raise WireProtocolError("a path without links")
        if int(lengths.sum()) != total_hops:
            raise WireProtocolError(f"path lengths do not sum to {total_hops} hops")
        links = _table_delta(
            data[blobs : blobs + links_len], link_lo, link_hi, len(self._links), "link"
        )
        names = _table_delta(
            data[blobs + links_len : body], name_lo, name_hi, len(self._names), "name"
        )
        for ids, bound, table in (
            (run.lids, link_hi, "link"),
            (name_ids, name_hi, "name"),
        ):
            if len(ids) and not 0 <= int(ids.min()) <= int(ids.max()) < bound:
                raise WireProtocolError(
                    f"a {table} id outside the stream's {bound}-entry table"
                )
        for text in links:
            src, _, dst = text.partition("->")
            self._links.append(DirectedLink(src, dst))
        self._names.extend(names)
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
class RunColumns(NamedTuple):
    """One single-epoch run as the bulk admission reads it: every event's seq
    (:func:`seqs_of`), the paths' columns (``refs``: the path objects, kept
    for their identity cargo only; both ``links`` and ``refs`` are empty for a
    wire run, whose hops travel as ids), then the count updates' columns."""

    seqs: np.ndarray
    path_seqs: Sequence[int]
    flows: Sequence[int]
    counts: Sequence[int]
    links: Sequence[Sequence[DirectedLink]]
    lengths: np.ndarray
    refs: Sequence[DiscoveredPath]
    upd_flows: Sequence[int]
    upd_seqs: Sequence[int]
    upd_counts: Sequence[int]


def run_columns(run: Sequence[Evidence], seqs: np.ndarray) -> Optional[RunColumns]:
    """The edge of a delivered run: its events as :class:`RunColumns`.

    ``None`` when the run holds anything but exact :class:`PathEvidence` /
    :class:`RetransmissionEvidence` instances (subclasses and foreign kinds
    belong to the per-event path, which handles or loudly rejects them).
    """
    paths = [e.path for e in run if type(e) is PathEvidence]
    updates = []
    path_seqs = seqs
    if len(paths) != len(run):
        updates = [e for e in run if type(e) is RetransmissionEvidence]
        if len(paths) + len(updates) != len(run):
            return None
        is_update = np.fromiter(
            (type(e) is RetransmissionEvidence for e in run), dtype=bool, count=len(run)
        )
        path_seqs = seqs[~is_update]
    links = [path.links for path in paths]
    return RunColumns(
        seqs,
        path_seqs.tolist(),
        [path.flow_id for path in paths],
        [path.retransmissions for path in paths],
        links,
        np.fromiter(map(len, links), dtype=np.int64, count=len(links)),
        paths,
        [e.flow_id for e in updates],
        seqs[is_update].tolist() if updates else [],
        [e.retransmissions for e in updates],
    )


def bulk_admissible(
    cols: RunColumns, max_seq: int, seen: Optional[Set[int]] = None
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
    earlier record, bulk the final one).  A path without links or with too
    many (``cols.lengths``) is malformed for every ingest path, so it raises
    here (:func:`~repro.core.votes.check_hop_counts`), before the caller has
    touched any state.
    """
    seqs, lengths = cols.seqs, cols.lengths
    if len(lengths):
        check_hop_counts(int(lengths.min()), int(lengths.max()))
    first = int(seqs[0])
    if first < 0:  # a seq-less update leads the run (see seqs_of)
        return False
    if first <= max_seq and (seen is None or not seen.isdisjoint(seqs.tolist())):
        return False
    if not bool((np.diff(seqs) > 0).all()):
        return False
    if cols.upd_flows:
        seq_of_last_path = dict(zip(cols.flows, cols.path_seqs)).get
        return not any(
            seq_of_last_path(flow, -1) > seq
            for flow, seq in zip(cols.upd_flows, cols.upd_seqs)
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
    """Folds epoch tallies as committed bulk runs arrive.

    Integer vote units make the fold order-free, so an epoch's tally is
    bit-identical to an unsharded service's over the same evidence — which
    is the whole argument behind :meth:`build_tally`.  Anything the bulk
    path cannot prove duplicate-free and bound like the per-event path
    (sequence regressions, updates ahead of their path) marks the epoch
    dirty, and :meth:`build_tally` returns ``None`` so the caller replays the
    epoch instead — the two paths agree bit-for-bit whenever both apply.
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
        cols: RunColumns,
        add_paths: Callable[[ArrayVoteTally], None],
    ) -> None:
        """Validate one run, then fold it into the epoch's own lane or ``side``.

        The preconditions are the service's (:func:`bulk_admissible`); a
        violation marks the epoch dirty — or the side lane, which then
        dirties the epoch it joins — so a half-applied run can never leak
        into a merged report.  The fold is paid here, when the run is
        appended, so :meth:`build_tally` stays a snapshot.
        """
        seqs = cols.seqs
        if not len(seqs) or epoch in self._dirty:
            return
        lane = side or self._own_lane(epoch)
        if not lane.clean:
            return
        tally = lane.tally
        try:
            lane.clean = bulk_admissible(cols, lane.max_seq)
        except ValueError:
            # a path no vote can be cast from: a service raises on it, and
            # whatever state survives that is per-event territory.
            lane.clean = False
        if lane.clean:
            add_paths(tally)
            # updated flows without rows wait on the lane: a side lane's are
            # before it (the join binds them); the epoch's own lane never saw
            # them (an update ahead of its path, or a path sent per event): replay.
            rows, extras = bind_updates(
                tally, *aggregate_updates(cols.upd_flows, cols.upd_counts), lane.waiting
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
        cols = run_columns(run, seqs)
        if cols is None:
            self.mark_dirty(epoch)
            return
        self._admit(
            epoch, None, cols, lambda tally: tally.add_flows(cols.refs, cols.path_seqs)
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
        cols = RunColumns(
            run.seqs,
            path_seqs.tolist(),
            run.flow_ids.tolist(),
            run.retrans,
            (),
            run.lengths,
            (),
            run.upd_flows.tolist(),
            run.update_seqs().tolist(),
            run.upd_counts,
        )
        self._admit(
            epoch,
            lane,
            cols,
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
