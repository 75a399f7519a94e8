"""Binary evidence transport, and the bulk admission of a decoded run.

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

* :class:`RunColumns` — one run as :meth:`Zero07Service.ingest_columns
  <repro.api.service.Zero07Service.ingest_columns>` admits it, arrays end to
  end: a decoded :class:`WireRun` (:meth:`WireRun.columns`), a delivered
  list of events (:func:`run_columns`) or a restored checkpoint epoch.  What
  the one admission reads of it lives beside it: an epoch's seen sequence
  numbers (:class:`SeqRuns`, which also finds a run's duplicates) and the
  row each of its count updates binds to (:func:`bind_updates`).
"""

from __future__ import annotations

import operator
import struct
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.events import (
    Evidence,
    PathEvidence,
    RetransmissionEvidence,
    link_from_str,
    links_to_str,
)
from repro.core.arrays import ArrayVoteTally, ItemIndex, LinkIndex
from repro.core.votes import MAX_HOPS, PathTooLongError, VotePolicy
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

#: the identity columns a message carries after the hops, in order (the path
#: epochs travel beside the flow ids).
_MESSAGE_IDENTITY = ("sh", "dh", "sip", "dip", "sp", "dp", "pr", "comp")

#: the largest source port, destination port and protocol a path can carry.
_FIVE_TUPLE_MAX = np.array([[0xFFFF], [0xFFFF], [0xFF]], dtype=np.uint32)


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


def _table_blob(texts: List[str]) -> bytes:
    """A table delta as written, NUL-separated UTF-8; ``ValueError`` for an
    entry that holds a NUL, which would decode as two entries."""
    blob = "\x00".join(texts)
    if blob.count("\x00") > max(len(texts) - 1, 0):
        bad = next(text for text in texts if "\x00" in text)
        raise ValueError(f"{bad!r} cannot be written: it holds the separator '\\x00'")
    return blob.encode("utf-8")


def _attr_i64(items, name: str) -> np.ndarray:
    return np.fromiter(
        map(operator.attrgetter(name), items), dtype=np.int64, count=len(items)
    )


def seqs_of(run: Sequence[Evidence]) -> np.ndarray:
    """The run's sequence numbers (``None`` encoded as -1).

    Real sequence numbers are non-negative: a path's -1 is refused at
    admission, and an update's marks it seq-less, which no duplicate check
    drops and no set of seen seqs holds.
    """
    try:
        return _attr_i64(run, "seq")
    except TypeError:  # a seq-less RetransmissionEvidence
        return np.fromiter(
            (-1 if e.seq is None else e.seq for e in run),
            dtype=np.int64,
            count=len(run),
        )


# ----------------------------------------------------------------------
# the paths' identity: five-tuple, hosts, ``complete``, path epoch
# ----------------------------------------------------------------------
def encode_identity(
    paths: List[DiscoveredPath], names: ItemIndex
) -> Dict[str, np.ndarray]:
    """The identity columns a message carries of path objects, names
    interned in ``names``: ``comp`` and ``pep`` (``complete`` and path
    epoch), ``sh``/``dh``/``sip``/``dip`` (name ids) and ``sp``/``dp``/``pr``.

    One C-level pass per column, and one interning pass over the four name
    columns end to end — source hosts, destination hosts, source IPs,
    destination IPs — so new names get ids in that order.  No analysis
    reads these columns: flow id, links and count travel beside them.
    """
    count = len(paths)

    def column(attr: str, source: list, dtype) -> np.ndarray:
        values = map(operator.attrgetter(attr), source)
        return np.fromiter(values, dtype=dtype, count=count)

    five_tuples = list(map(operator.attrgetter("five_tuple"), paths))
    ids = names.fast_ids(
        list(map(operator.attrgetter("src_host"), paths))
        + list(map(operator.attrgetter("dst_host"), paths))
        + list(map(operator.attrgetter("src_ip"), five_tuples))
        + list(map(operator.attrgetter("dst_ip"), five_tuples)),
        dtype=np.int32,
    )
    sh, dh, sip, dip = ids.reshape(4, count)
    return {
        "comp": column("complete", paths, np.uint8),
        "pep": column("epoch", paths, np.int64),
        "sh": sh,
        "dh": dh,
        "sip": sip,
        "dip": dip,
        "sp": column("src_port", five_tuples, np.int32),
        "dp": column("dst_port", five_tuples, np.int32),
        "pr": column("protocol", five_tuples, np.int32),
    }


def decode_paths(
    cols: Dict[str, np.ndarray], names: Sequence[str], links: Sequence[DirectedLink]
) -> List[DiscoveredPath]:
    """Rebuild path objects from a run's columns: ``flow``/``retr``/``len``/
    ``hop`` (ids into ``links``) and the identity columns of
    :func:`encode_identity` (name ids into ``names``).

    Paths are constructed fresh on every call but share the tables'
    :class:`DirectedLink` objects and strings.
    """
    flows = cols["flow"].tolist()
    retrs = cols["retr"].tolist()
    comps = cols["comp"].tolist()
    peps = cols["pep"].tolist()
    lens = cols["len"].tolist()
    sps = cols["sp"].tolist()
    dps = cols["dp"].tolist()
    prs = cols["pr"].tolist()
    # Hoist every table lookup out of the record loop: whole-column maps run
    # through C iterators, the loop then only assembles per-record objects.
    src_ips = list(map(names.__getitem__, cols["sip"].tolist()))
    dst_ips = list(map(names.__getitem__, cols["dip"].tolist()))
    src_hosts = list(map(names.__getitem__, cols["sh"].tolist()))
    dst_hosts = list(map(names.__getitem__, cols["dh"].tolist()))
    hop_links = list(map(links.__getitem__, cols["hop"].tolist()))
    paths: List[DiscoveredPath] = []
    append = paths.append
    # Whole runs decode at once, so the per-record dataclass machinery
    # (``__init__`` + ``FiveTuple.__post_init__`` validation) is bypassed:
    # :meth:`WireDecoder.decode_columns` checked every value, and both
    # classes store their fields in a plain ``__dict__``.
    new_path = DiscoveredPath.__new__
    new_ft = FiveTuple.__new__
    set_attr = object.__setattr__
    pos = 0
    for i in range(len(flows)):
        end = pos + lens[i]
        ft = new_ft(FiveTuple)
        set_attr(
            ft,
            "__dict__",
            {
                "src_ip": src_ips[i],
                "dst_ip": dst_ips[i],
                "src_port": sps[i],
                "dst_port": dps[i],
                "protocol": prs[i],
            },
        )
        path = new_path(DiscoveredPath)
        path.__dict__ = {
            "flow_id": flows[i],
            "five_tuple": ft,
            "src_host": src_hosts[i],
            "dst_host": dst_hosts[i],
            "links": hop_links[pos:end],
            "complete": bool(comps[i]),
            "retransmissions": retrs[i],
            "epoch": peps[i],
        }
        append(path)
        pos = end
    return paths


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
        known, names_known = len(self._links), len(self._names)
        lids = self._links.hop_ids(links_list, total_hops)
        link_lo, name_lo = self._links_sent[stream], self._names_sent[stream]
        link_hi = len(self._links)
        try:
            link_texts = links_to_str(self._links.items[link_lo:link_hi])
            identity = encode_identity(paths, self._names)
            name_hi = len(self._names)
            links_blob = _table_blob(link_texts)
            names_blob = _table_blob(self._names.items[name_lo:name_hi])
        except ValueError:  # a refused link or name joins no table
            self._links.truncate(known)
            self._names.truncate(names_known)
            raise
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
        out += identity["pep"].tobytes()
        out += lengths.tobytes()
        out += lids.astype(np.int32).tobytes()
        for name in _MESSAGE_IDENTITY:
            out += identity[name].tobytes()
        if updates:
            out += _attr_i64(updates, "flow_id").tobytes()
            out += _attr_i64(updates, "retransmissions").tobytes()
        return bytes(out)


class WireRun:
    """One decoded message as raw columns — no per-event objects yet.

    The cheap half of decoding: header fields plus numpy views over the
    message buffer (which the run keeps alive), with the decoder's shared
    link/name tables referenced for the expensive half.  The paths' identity
    is :data:`identity` (:func:`encode_identity`'s columns, name ids indexing
    :attr:`names_table`), which only :meth:`materialize` reads.  The fleet
    analyzer admits :meth:`columns` as they are; anything that needs real
    :class:`~repro.api.events.Evidence` objects calls :meth:`materialize`.
    The tables are append-only, so a kept run can be materialized at any
    later point of the stream.
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
        "lengths",
        "lids",
        "identity",
        "upd_flows",
        "upd_counts",
        "links_table",
        "names_table",
        "_data",
    )

    @property
    def last_seq(self) -> int:
        """The run's last sequence number (-1 for an empty run)."""
        return int(self.seqs[-1]) if self.n_events else -1

    def _path_seqs(self) -> np.ndarray:
        seqs = self.seqs
        return seqs if self.n_paths == self.n_events else seqs[self.kinds == 0]

    def columns(self) -> "RunColumns":
        """The run as :class:`RunColumns`: views of the message, no copy.

        The identity columns are left out; the hops (``lids``) index the
        decoder's link table, which a :class:`LinkRemap` translates.
        """
        seqs = self.seqs
        updates = None if self.n_paths == self.n_events else self.kinds != 0
        return RunColumns(
            seqs,
            updates,
            self._path_seqs(),
            self.flow_ids,
            self.retrans,
            self.lengths,
            seqs[:0] if updates is None else seqs[updates],
            self.upd_flows,
            self.upd_counts,
        )

    def materialize(self) -> List[Evidence]:
        """Rebuild the run's evidence events (the expensive decode half).

        The paths come from :func:`decode_paths`, which trusts the columns:
        :meth:`WireDecoder.decode_columns` checked every value.
        """
        epoch = self.epoch
        paths = decode_paths(
            dict(
                self.identity,
                flow=self.flow_ids,
                retr=self.retrans,
                len=self.lengths,
                hop=self.lids,
            ),
            self.names_table,
            self.links_table,
        )
        if self.n_paths == self.n_events:
            return [
                PathEvidence(epoch, seq, path)
                for seq, path in zip(self._path_seqs().tolist(), paths)
            ]
        updates = zip(self.upd_flows.tolist(), self.upd_counts.tolist())
        path_iter = iter(paths)
        events: List[Evidence] = []
        append = events.append
        for kind, seq in zip(self.kinds.tolist(), self.seqs.tolist()):
            if kind:
                flow, count = next(updates)
                seq = None if seq < 0 else seq
                append(RetransmissionEvidence(epoch, flow, count, seq))
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
        lengths (``PathTooLongError`` past 8 hops), the paths' seqs and all
        retransmission counts (each ``>= 0``), ports and protocols (a
        :class:`~repro.routing.fivetuple.FiveTuple`'s ranges), the
        table-delta ranges and every link and name id — any damage raises
        :class:`WireProtocolError`.  Then folds the message's
        table deltas into the stream state, but builds no event objects —
        column views over the input buffer only.  The returned run keeps
        ``data`` alive.
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
        path_epochs = column(np.int64, n_paths)
        run.lengths = column(np.int32, n_paths)
        run.lids = column(np.int32, total_hops)
        name_ids = column(np.int32, 4 * n_paths)
        five_tuple = column(np.int32, 3 * n_paths)  # sp | dp | pr
        complete = column(np.uint8, n_paths)
        run.identity = dict(
            zip(
                ("comp", "pep", "sh", "dh", "sip", "dip", "sp", "dp", "pr"),
                (
                    complete,
                    path_epochs,
                    *name_ids.reshape(4, n_paths),
                    *five_tuple.reshape(3, n_paths),
                ),
            )
        )
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
        if n_paths and int(run._path_seqs().min()) < 0:
            raise WireProtocolError("a path without a sequence number")
        if (n_paths and int(run.retrans.min()) < 0) or (
            n_updates and int(run.upd_counts.min()) < 0
        ):
            raise WireProtocolError("a retransmission count below 0")
        # negative values wrap past every bound
        if (five_tuple.view(np.uint32).reshape(3, n_paths) > _FIVE_TUPLE_MAX).any():
            raise WireProtocolError("a port or protocol out of range")
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
        try:
            links = list(map(link_from_str, links))
        except ValueError as exc:
            raise WireProtocolError(str(exc)) from None
        self._links.extend(links)
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
    message remaps with one numpy fancy-index.  This is what lets one
    service admit wire runs from many independent streams without touching
    per-event objects.
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
        return self._map.take(lids)


# ----------------------------------------------------------------------
# bulk admission (the service's, for every delivery)
# ----------------------------------------------------------------------
class RunColumns(NamedTuple):
    """One single-epoch run as the admission reads it, arrays end to end.

    Every event's seq (:func:`seqs_of`) and which events are count updates
    (``updates``; ``None`` when none is), the paths' columns, then the count
    updates' columns; the hops travel beside it.  What Algorithm 1 reads,
    and nothing else: no five-tuple, host, ``complete`` or path epoch.
    """

    seqs: np.ndarray
    updates: Optional[np.ndarray]
    path_seqs: np.ndarray
    flows: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    upd_seqs: np.ndarray
    upd_flows: np.ndarray
    upd_counts: np.ndarray

    def take(self, keep: np.ndarray) -> Tuple["RunColumns", np.ndarray]:
        """The run's events ``keep`` (a mask over ``seqs``), and the mask
        over the hops that keeps their paths'."""
        if self.updates is None:
            paths, updates = keep, keep[:0]
        else:
            paths, updates = keep[~self.updates], keep[self.updates]
        return RunColumns(
            self.seqs[keep],
            None if self.updates is None else self.updates[keep],
            self.path_seqs[paths],
            self.flows[paths],
            self.counts[paths],
            self.lengths[paths],
            self.upd_seqs[updates],
            self.upd_flows[updates],
            self.upd_counts[updates],
        ), np.repeat(paths, self.lengths)


def run_columns(
    run: Sequence[Evidence], seqs: np.ndarray
) -> Optional[Tuple[RunColumns, List[Sequence[DirectedLink]]]]:
    """The edge of a delivered run: its events as :class:`RunColumns` and
    each path's links, for the hops.  Nothing else of a path object is read.

    ``None`` when the run holds anything but exact :class:`PathEvidence` /
    :class:`RetransmissionEvidence` instances: the caller captures such a
    run event by event, as per-event ingest does.
    """
    paths = [e.path for e in run if type(e) is PathEvidence]
    updates, counted = None, []
    path_seqs = upd_seqs = seqs
    if len(paths) != len(run):
        counted = [e for e in run if type(e) is RetransmissionEvidence]
        if len(paths) + len(counted) != len(run):
            return None
        updates = np.fromiter(
            (type(e) is RetransmissionEvidence for e in run), dtype=bool, count=len(run)
        )
        path_seqs, upd_seqs = seqs[~updates], seqs[updates]
    links = [path.links for path in paths]
    return RunColumns(
        seqs,
        updates,
        path_seqs,
        _attr_i64(paths, "flow_id"),
        _attr_i64(paths, "retransmissions"),
        np.fromiter(map(len, links), dtype=np.int64, count=len(links)),
        upd_seqs if counted else seqs[:0],
        _attr_i64(counted, "flow_id"),
        _attr_i64(counted, "retransmissions"),
    ), links


def _merged(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One sorted array of two disjoint sorted ones."""
    if first[-1] < second[0]:
        return np.concatenate((first, second))
    if second[-1] < first[0]:
        return np.concatenate((second, first))
    # two sorted stretches: the stable sort merges them in linear time
    return np.sort(np.concatenate((first, second)), kind="stable")


class SeqRuns:
    """A set of sequence numbers kept as sorted int64 runs.

    An admitted run's seqs go in whole, as one array.  Runs merge lazily, by
    the logarithmic method — a new run absorbs the runs before it that are
    at most twice its size — so an epoch keeps O(log n) runs and each seq
    is merged O(log n) times.  Finding a whole run's duplicates is one
    ``searchsorted`` per run it overlaps.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: List[np.ndarray] = []

    def __len__(self) -> int:
        return sum(map(len, self._runs))

    def add_run(self, seqs: np.ndarray) -> None:
        """Add distinct seqs, in any order, none of which is in the set."""
        if not len(seqs):
            return
        # a run out of order is mostly in order: the stable sort merges it
        run = seqs if bool((np.diff(seqs) > 0).all()) else np.sort(seqs, kind="stable")
        runs = self._runs
        while runs and len(runs[-1]) <= 2 * len(run):
            run = _merged(runs.pop(), run)
        runs.append(run)

    def duplicates(self, seqs: np.ndarray) -> np.ndarray:
        """Per seq of ``seqs``: whether it is in the set or repeats an
        earlier seq of ``seqs``.  A negative seq — a seq-less update, see
        :func:`seqs_of` — never is."""
        found = np.zeros(len(seqs), dtype=bool)
        if not len(seqs):
            return found
        if not bool((np.diff(seqs) > 0).all()):  # each repeat after its first
            order = np.argsort(seqs, kind="stable")
            ranked = seqs[order]
            found[order[1:][ranked[1:] == ranked[:-1]]] = True
        low, high = seqs.min(), seqs.max()
        for run in self._runs:
            if run[0] > high or run[-1] < low:
                continue
            at = np.minimum(np.searchsorted(run, seqs), len(run) - 1)
            found |= run[at] == seqs
        if low < 0:
            found &= seqs >= 0
        return found


def bind_updates(cols: RunColumns, tally) -> np.ndarray:
    """Each count update's row, bound at its position in a duplicate-free
    run: its flow's highest-seq row (the later row a tie) among ``tally``'s
    — the epoch's before the run — and the run's earlier paths, which are
    numbered from ``tally.num_flows`` on in run order; ``-1`` for an
    update whose flow has no row yet — the row admitting the events one at
    a time binds it to.  One lookup in the run's path flows splits them:
    (a) an update whose flow has no path in the run binds to its tally row,
    the only candidate; (b) one whose flow has one path in the run and no
    tally row binds to that path's row, as an update ahead of the path
    joins the buffered counts, which go to the flow's first arrival; (c)
    the rest go through a position-ordered pass over them and their flows'
    paths alone.
    """
    flows, upd_flows = cols.flows, cols.upd_flows
    rows = tally.bound_rows(upd_flows)
    if not len(flows):
        return rows
    ascending = bool((flows[1:] >= flows[:-1]).all())
    order = None if ascending else np.argsort(flows, kind="stable")
    ranked = flows if order is None else flows[order]
    at, last = np.searchsorted(ranked, upd_flows), len(ranked) - 1
    in_run = ranked[np.minimum(at, last)] == upd_flows
    twice = in_run & (at < last) & (ranked[np.minimum(at + 1, last)] == upd_flows)
    lone = in_run & ~twice & (rows < 0)  # (b)
    rows[lone] = tally.num_flows + (at[lone] if order is None else order[at[lone]])
    mixed = in_run & ~lone  # (c)
    if not mixed.any():
        return rows
    paths = np.isin(flows, upd_flows[mixed])
    keep = np.empty(len(cols.seqs), dtype=bool)
    keep[~cols.updates], keep[cols.updates] = paths, mixed
    cols, paths, mixed = cols.take(keep)[0], np.flatnonzero(paths), np.flatnonzero(mixed)
    # the events by flow, in run order within a flow (a stable sort)
    updates = cols.updates
    flows = np.empty(len(updates), dtype=np.int64)
    flows[~updates], flows[updates] = cols.flows, cols.upd_flows
    order = np.argsort(flows, kind="stable")
    # a path's key is 1 + its rank by (seq, position), an update's 0; the
    # running maximum within a flow is an update's best earlier path
    by_seq = np.argsort(cols.path_seqs, kind="stable")
    rank = np.empty(len(by_seq), dtype=np.int64)
    rank[by_seq] = np.arange(1, len(by_seq) + 1)
    key = np.zeros(len(updates), dtype=np.int64)
    key[~updates] = rank
    ranked = flows[order]
    lift = np.cumsum(np.append(False, ranked[1:] != ranked[:-1])) * (len(by_seq) + 1)
    best = np.empty_like(key)
    best[order] = np.maximum.accumulate(key[order] + lift) - lift
    best = best[updates]
    found = np.flatnonzero(best)
    if len(found):
        path = by_seq[best[found] - 1]
        known = rows[mixed[found]]
        # the run's path outranks the tally's row unless its seq is lower
        beats = known < 0
        beats[~beats] = (
            cols.path_seqs[path[~beats]] >= tally.seqs_array()[known[~beats]]
        )
        rows[mixed[found[beats]]] = tally.num_flows + paths[path[beats]]
    return rows


class EvidenceColumnStore:
    """Epoch tallies of delivered runs, for the ruler's wire replay
    (``ruler/layers.py`` times its ``store.*`` layers): a thin wrapper of a
    plain :class:`~repro.api.service.Zero07Service`, which admits the runs."""

    def __init__(
        self, link_index: LinkIndex, policy: VotePolicy = "inverse_hops"
    ) -> None:
        from repro.api.service import Zero07Service

        self._service = Zero07Service(vote_policy=policy, link_index=link_index)
        self._policy, self._links = policy, link_index

    def append_run(
        self, epoch: int, run: Sequence[Evidence], seqs: Optional[np.ndarray] = None
    ) -> None:
        """Admit one tickless run of ``epoch``'s evidence objects."""
        self._service.ingest_run(epoch, run, seqs=seqs)

    def build_tally(self, epoch: int) -> ArrayVoteTally:
        """A snapshot of the epoch's tally (an empty one for an epoch the
        store never saw): the fold alone, without a report's blame."""
        state = self._service._epochs.get(epoch)
        if state is None:
            return ArrayVoteTally(self._policy, self._links)
        return state.tally.snapshot()

    def pop(self, epoch: int) -> None:
        """Forget the epoch."""
        self._service._epochs.pop(epoch, None)
