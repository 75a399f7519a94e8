"""Checkpointing of streaming-service analysis state.

A :class:`Checkpoint` is a frozen snapshot of everything a
:class:`~repro.api.service.Zero07Service` (or
:class:`~repro.api.sharded.ShardedService`) needs to resume *bit-identically*:
the analysis configuration, the epoch bookkeeping, and every open epoch's
evidence records in the order they arrived (each with its unique sequence
number; files written before arrival order was kept hold them sorted, and
read the same way).  Finalized epochs' reports are not
checkpointed — they were already delivered to the report sinks; a restored
service picks up exactly where ingestion stopped.

A checkpoint's records are **columns** from capture to disk and back
(:class:`CheckpointColumns`: per-epoch arrays of sequence numbers, flow ids,
counts and CSR link ids over a shared link table) and hold what Algorithm 1
reads, nothing else: no five-tuple, host, ``complete`` flag or path epoch.
``checkpoint()`` copies them out of the tally's buffers, a delta is a column
diff against its base, :meth:`Checkpoint.apply_delta` a column merge, and a
restore folds the tally from them.  No record is ever decoded into a path
object.

:meth:`Checkpoint.save` writes the one checkpoint form, a small **binary
container** (payload version 3): magic ``R7CK``, a zlib-compressed JSON header
carrying the configuration, counters and link table, followed by the stored
(uncompressed) ``npz`` blob ``np.savez`` writes of the columns, each in the
smallest unsigned dtype that holds it (widened back to the in-memory dtypes on
load); bodies that earlier versions deflated load the same way.  A version-2
container still loads, as version 3: its nine identity columns and its name
table are dropped unread.  The container is also the only form
:meth:`Checkpoint.load` reads: JSON checkpoint documents, which earlier
versions wrote, are retired and refused with a ``ValueError`` that says so.

**Delta checkpoints** carry only the evidence that arrived since a full base
checkpoint (new records, records whose retransmission counts changed, new
consumed update seqs) plus the current counters.  Records keep their
arrival order, so a base's records are a prefix of the live epoch's and the
capture diffs only that prefix's counts; a base from another service is
refused.  :meth:`Checkpoint.apply_delta` merges a delta onto
its base — verified by a structural fingerprint — yielding a full checkpoint
again: a base record the delta carries gets the delta's count in place, and
the delta's new records follow the base's in the delta's order.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.api.events import link_from_str, links_to_str
from repro.core.arrays import ItemIndex
from repro.core.blame import BlameConfig
from repro.core.votes import PathTooLongError, check_hop_counts
from repro.util.jsonable import from_json

#: payload schema version written by :meth:`Zero07Service.checkpoint` and
#: the only one :meth:`Checkpoint.validate` accepts; version 2 added delta
#: checkpoints and the binary container, version 3 dropped the records'
#: identity columns and the name table.
CHECKPOINT_VERSION = 3

#: the record columns a version-2 container also holds — ``complete``, path
#: epoch, hosts and five-tuple — which :meth:`Checkpoint.from_bytes` drops
#: unread, with the name table their host/address ids index.
_V2_IDENTITY_COLUMNS = frozenset(
    ("comp", "pep", "sh", "dh", "sip", "dip", "sp", "dp", "pr")
)

#: magic prefix of the binary container (followed by a container version).
CHECKPOINT_MAGIC = b"R7CK"

#: binary container layout version (orthogonal to the payload version).
_CONTAINER_VERSION = 1

#: magic + u32 container version + u64 compressed-header length.
_CONTAINER_HEADER = struct.Struct("<4sIQ")

#: deflate level of the JSON header.  Its link table (~90 KB of JSON on a
#: 2.8k-link fabric) shrinks about 9x, and level 1 takes a fifth of level 6's
#: time for ~8 KB more.  The ``npz`` body is stored, not deflated: a save
#: stalls the ingest thread, and deflating the narrowed columns, which shrink
#: only 1.5-1.9x, took about half of a save and a third of a load.
_DEFLATE_LEVEL = 1


# ----------------------------------------------------------------------
# record columns (the in-memory form and the binary body)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointColumns:
    """Checkpointed records: dense per-epoch columns + a shared link table.

    ``arrays`` maps ``"{prefix}_{column}"`` to one array per column of every
    epoch (see ``_EPOCH_COLUMNS``); the ``hop`` column holds ids into
    ``links``, one :class:`DirectedLink` object per table entry, which a
    restore interns into the tally's index once.  Arrays are never written
    after construction, so checkpoints may share them.
    """

    arrays: Dict[str, np.ndarray]
    links: List[Any]


#: every array of one epoch and its in-memory dtype: the per-record columns,
#: the CSR hop ids (``len`` delimits them) and the consumed
#: retransmission-update seqs.
COLUMN_DTYPES = {
    "seq": np.int64,
    "flow": np.int64,
    "retr": np.int64,
    "len": np.int32,
    "hop": np.int32,
    "rs": np.int64,
}
_EPOCH_COLUMNS = tuple(COLUMN_DTYPES)
_RECORD_COLUMNS = _EPOCH_COLUMNS[:-2]

#: the columns a delta capture compares with its base, and a fingerprint reads.
DIFF_COLUMNS = ("seq", "retr", "rs")

#: one epoch's arrays by bare column name.
EpochColumns = Dict[str, np.ndarray]


class ColumnsBuilder:
    """Assembles a checkpoint's :class:`CheckpointColumns` epoch by epoch.

    Epochs arrive as a live service's columns (capture) or as columns of
    another checkpoint (delta merge, shard split) and end up under one link
    table.
    """

    __slots__ = ("arrays", "links")

    def __init__(self, links: Iterable = ()) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self.links = ItemIndex(links)

    def add_epoch(
        self, prefix: str, epoch: int, cols: EpochColumns, pending: Dict[str, int]
    ) -> Dict[str, Any]:
        """Store ``cols`` under ``prefix``; returns the epoch's payload entry."""
        for name in _EPOCH_COLUMNS:
            self.arrays[f"{prefix}_{name}"] = cols[name]
        return {
            "epoch": epoch,
            "records": {"__columns__": prefix, "count": len(cols["seq"])},
            "pending_retransmissions": pending,
            "retransmission_seqs": {"__columns__": prefix},
        }

    def adopter(
        self, source: CheckpointColumns
    ) -> Callable[[Dict[str, Any]], EpochColumns]:
        """A function giving an epoch entry of ``source`` in this builder's
        link table.

        ``source``'s table entries are interned here once; re-expressing an
        epoch's hops then costs one take.
        """
        link_map = self.links.fast_ids(source.links, dtype=np.int32)

        def adopt(entry: Dict[str, Any]) -> EpochColumns:
            cols = epoch_columns(entry, source)
            cols["hop"] = link_map[cols["hop"]]
            return cols

        return adopt

    def build(self) -> CheckpointColumns:
        """The assembled columns (the builder must not be used afterwards)."""
        return CheckpointColumns(self.arrays, self.links.items)


def epoch_columns(
    entry: Dict[str, Any],
    columns: CheckpointColumns,
    names: Sequence[str] = _EPOCH_COLUMNS,
) -> EpochColumns:
    """The arrays (all, or just ``names``) one payload epoch entry points at."""
    prefix = entry["records"]["__columns__"]
    return {name: columns.arrays[f"{prefix}_{name}"] for name in names}


def _validate_columns(payload: Dict[str, Any], columns: CheckpointColumns) -> None:
    """Raise ``ValueError`` unless every epoch's columns are self-consistent.

    Restore and merge trust the columns (hop ids index the link table,
    ``len`` delimits ``hop``, seqs key the records), so whatever was parsed
    from outside is checked here once, vectorized; a path longer than
    ``MAX_HOPS`` raises :class:`~repro.core.votes.PathTooLongError`.
    """
    # a payload without ``epochs`` is of a retired shape, which ``validate``
    # names after the parse
    for entry in payload.get("epochs", ()):
        where = f"epoch {entry['epoch']}"
        cols = epoch_columns(entry, columns)
        count = entry["records"]["count"]
        for name, col in cols.items():
            if col.ndim != 1 or col.dtype.kind not in "iu":
                raise ValueError(f"{where}: column {name!r} is not an id vector")
        if any(len(cols[name]) != count for name in _RECORD_COLUMNS):
            raise ValueError(f"{where}: record columns disagree with count={count}")
        lens, seq = cols["len"], cols["seq"]
        if int(lens.sum()) != len(cols["hop"]) or (count and int(lens.min()) < 1):
            raise ValueError(f"{where}: path lengths do not delimit the hops")
        if count:
            check_hop_counts(1, int(lens.max()))
        ordered = np.sort(seq)
        if not bool((ordered[1:] > ordered[:-1]).all()):
            raise ValueError(f"{where}: record seqs are not unique")
        # seqs are kept only for events with one; ingest refuses counts < 0
        for name in ("seq", "rs", "retr"):
            if len(cols[name]) and int(cols[name].min()) < 0:
                raise ValueError(f"{where}: column {name!r} holds a value < 0")
        hops, size = cols["hop"], len(columns.links)
        if len(hops) and not 0 <= int(hops.min()) <= int(hops.max()) < size:
            raise ValueError(f"{where}: column 'hop' leaves [0, {size})")


# ----------------------------------------------------------------------
# delta checkpoints
# ----------------------------------------------------------------------
def payload_fingerprint(
    payload: Dict[str, Any], columns: CheckpointColumns
) -> Dict[str, Any]:
    """A structural fingerprint a delta uses to recognize its base.

    Cheap (per-epoch record counts, highest record seq, consumed-update
    counts, finalization markers) but strong enough that applying a delta to
    the wrong base fails loudly instead of merging garbage.  A sharded
    checkpoint holds its coordinator service's payload, so it prints like a
    service's (``apply_delta`` compares the kinds).
    """
    epochs = {}
    for entry in payload["epochs"]:
        cols = epoch_columns(entry, columns, DIFF_COLUMNS)
        seq = cols["seq"]
        epochs[str(entry["epoch"])] = [
            len(seq),
            int(seq.max()) if len(seq) else -1,
            len(cols["rs"]),
        ]
    return {
        "kind": "service",
        "last_finalized": payload["last_finalized"],
        "max_epoch_seen": payload["max_epoch_seen"],
        "epochs": epochs,
    }


def _matches(seq: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(found, at)``: whether each of ``seq`` is among the unique ``keys``,
    and where (``at`` is meaningful where ``found``); neither side need be
    sorted."""
    if not len(keys):
        return np.zeros(len(seq), dtype=bool), np.zeros(len(seq), dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    at = order[np.minimum(np.searchsorted(keys, seq, sorter=order), len(keys) - 1)]
    return keys[at] == seq, at


def _sorted_distinct(col: np.ndarray) -> np.ndarray:
    """``np.unique(col)`` of a 1-D column, by sort and mask."""
    col = np.sort(col)
    keep = np.ones(len(col), dtype=bool)
    np.not_equal(col[1:], col[:-1], out=keep[1:])
    return col[keep]


# numpy 2's ``union1d``/``setdiff1d`` run a hash-based ``unique`` that takes
# 10-20x longer than a sort on a checkpoint's int64 seq columns.
def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)``: the distinct values of both columns, sorted."""
    return _sorted_distinct(np.concatenate((a, b)))


def sorted_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.setdiff1d(a, b)``: the distinct values of ``a`` not in ``b``, sorted."""
    distinct = _sorted_distinct(a)
    return distinct[~np.isin(distinct, _sorted_distinct(b), assume_unique=True)]


def delta_rows(seq: np.ndarray, retr: np.ndarray, base: EpochColumns) -> np.ndarray:
    """Indices of the live records a delta against ``base`` has to carry.

    ``seq`` and ``retr`` are the live epoch's columns; a record is carried
    when it is new or its retransmission count was bumped since the base
    (count updates mutate existing records in place).  Records keep their
    arrival order, also through a restore or a merge, so a base taken
    earlier from this same service holds the live epoch's first rows; any
    other base raises ``ValueError``.
    """
    base_seq = base["seq"]
    known = len(base_seq)
    if known > len(seq) or not np.array_equal(seq[:known], base_seq):
        raise ValueError(
            "the base's records are not a prefix of this service's: a base "
            "must be a full checkpoint taken earlier from this same service"
        )
    bumped = np.flatnonzero(retr[:known] != base["retr"])
    return np.concatenate((bumped, np.arange(known, len(seq))))


def take_rows(cols: EpochColumns, rows: np.ndarray) -> EpochColumns:
    """The records ``rows`` of ``cols``, in that order (hops gathered by CSR)."""
    lens = cols["len"].astype(np.int64)
    starts = np.cumsum(lens) - lens
    out = {name: cols[name][rows] for name in _RECORD_COLUMNS}
    out_lens = lens[rows]
    out_starts = np.cumsum(out_lens) - out_lens
    # hop k of output row r is input hop starts[rows[r]] + k
    out["hop"] = cols["hop"][
        np.repeat(starts[rows] - out_starts, out_lens)
        + np.arange(int(out_lens.sum()))
    ]
    return out


def _merge_epoch(base: EpochColumns, delta: EpochColumns) -> EpochColumns:
    """One epoch's base records overlaid with its delta records (same tables).

    A delta record whose seq the base holds carries that record's bumped
    count (a seq's path never changes); the others are new and follow the
    base's records in the delta's order — the live epoch's arrival order.
    """
    found, at = _matches(delta["seq"], base["seq"])
    fresh = take_rows(delta, np.flatnonzero(~found))
    merged = {
        name: np.concatenate((base[name], fresh[name]))
        for name in _EPOCH_COLUMNS
        if name != "rs"
    }
    merged["retr"][at[found]] = delta["retr"][found]
    merged["rs"] = sorted_union(base["rs"], delta["rs"])
    return merged


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: service-payload keys a merged checkpoint takes verbatim from the delta.
_SERVICE_STATE_KEYS = (
    "kind",
    "engine",
    "vote_policy",
    "attribute_noise_flows",
    "blame",
    "retain_reports",
    "max_epoch_seen",
    "last_finalized",
    "stats",
)


def _merge_payload(
    base: Dict[str, Any],
    base_columns: CheckpointColumns,
    delta: Dict[str, Any],
    adopt: Callable[[Dict[str, Any]], EpochColumns],
    builder: ColumnsBuilder,
) -> Dict[str, Any]:
    """Merge a delta payload onto its base into ``builder``.

    ``builder``'s tables start as the base's, so base epochs are stored as
    they are; ``adopt`` re-expresses the delta's epochs in those tables.
    """
    expected = delta["base"]
    actual = payload_fingerprint(base, base_columns)
    if expected != actual:
        raise ValueError(
            "delta checkpoint does not match this base (fingerprint mismatch: "
            f"expected {expected}, base is {actual})"
        )
    merged: Dict[str, Any] = {"version": CHECKPOINT_VERSION}
    for key in _SERVICE_STATE_KEYS:
        merged[key] = delta[key]
    if "num_shards" in delta:  # a sharded fleet's: its coordinator's payload
        merged["num_shards"] = delta["num_shards"]
    last_finalized = delta["last_finalized"]
    base_epochs = {entry["epoch"]: entry for entry in base["epochs"]}
    delta_epochs = {entry["epoch"]: entry for entry in delta["epochs"]}
    epochs: List[Dict[str, Any]] = []
    for epoch in sorted(set(base_epochs) | set(delta_epochs)):
        if last_finalized is not None and epoch <= last_finalized:
            continue  # finalized (and released) since the base was taken
        entry = base_epochs.get(epoch)
        cols = None if entry is None else epoch_columns(entry, base_columns)
        if epoch in delta_epochs:  # else untouched since the base
            entry = delta_epochs[epoch]
            cols = adopt(entry) if cols is None else _merge_epoch(cols, adopt(entry))
        epochs.append(
            builder.add_epoch(
                f"e{len(epochs)}", epoch, cols, entry["pending_retransmissions"]
            )
        )
    merged["epochs"] = epochs
    return merged


# ----------------------------------------------------------------------
# the binary container's canonical body
# ----------------------------------------------------------------------
def _compacted(payload: Dict[str, Any], columns: CheckpointColumns) -> CheckpointColumns:
    """``columns`` over a link table cut down to the entries its records use,
    in order of first use (epoch by epoch): a function of the records alone,
    whatever table the service or a merge accumulated them under."""
    keys = [f"{entry['records']['__columns__']}_hop" for entry in payload["epochs"]]
    table, arrays = columns.links, dict(columns.arrays)
    parts = [arrays[key] for key in keys]
    ids = np.concatenate(parts) if parts else np.empty(0, np.int32)
    if ids.dtype.kind not in "iu" or (
        len(ids) and not 0 <= int(ids.min()) <= int(ids.max()) < len(table)
    ):
        return columns  # self-inconsistent: written as it is, the reader rejects it
    first = np.full(len(table), len(ids), dtype=np.int32)
    np.minimum.at(first, ids, np.arange(len(ids), dtype=np.int32))
    kept = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(ids))]
    new_id = np.zeros(len(table), dtype=np.int32)
    new_id[kept] = np.arange(len(kept), dtype=np.int32)
    for key in keys:
        arrays[key] = new_id[arrays[key]]
    return CheckpointColumns(arrays, list(map(table.__getitem__, kept.tolist())))


def _narrowed(col: np.ndarray) -> np.ndarray:
    """``col`` in the smallest of uint8/16/32 that holds it, if that is smaller
    (uint64 never is — it would promote to float when merged with int64); a
    column with a negative value is left alone."""
    if len(col) and col.dtype.kind in "iu" and int(col.min()) >= 0:
        dtype = np.min_scalar_type(int(col.max()))
        if dtype.itemsize < col.dtype.itemsize:
            return col.astype(dtype)
    return col


def _widened(key: str, col: np.ndarray) -> np.ndarray:
    """``col`` in its column's in-memory dtype, where that loses nothing."""
    dtype = COLUMN_DTYPES[key.rpartition("_")[2]]
    if col.dtype != dtype and np.can_cast(col.dtype, dtype, "safe"):
        return col.astype(dtype)
    return col


def _fsync(path: Path) -> None:
    """Flush a file's (or a directory's entries') written data to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# the checkpoint object
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Checkpoint:
    """A frozen snapshot of a service's resumable analysis state.

    ``payload`` is the JSON-shaped state; its epoch entries carry
    ``{"__columns__": prefix}`` markers and the records themselves live in
    ``columns`` — from ``checkpoint()`` through :meth:`to_bytes` to restore.
    """

    payload: Dict[str, Any]
    columns: CheckpointColumns = field(repr=False)

    def __eq__(self, other: object) -> bool:
        """Equal content: what :meth:`to_bytes` writes — the payload and the
        columns over compacted tables — compared without decoding a record."""
        if not isinstance(other, Checkpoint):
            return NotImplemented
        mine = _compacted(self.payload, self.columns)
        theirs = _compacted(other.payload, other.columns)
        return (
            self.payload == other.payload
            and mine.links == theirs.links
            and mine.arrays.keys() == theirs.arrays.keys()
            and all(
                np.array_equal(col, theirs.arrays[key])
                for key, col in mine.arrays.items()
            )
        )

    @property
    def kind(self) -> Optional[str]:
        """``"service"`` or ``"sharded"``; ``None`` when the payload names no
        kind, which :meth:`validate` refuses."""
        return self.payload.get("kind")

    @property
    def version(self) -> int:
        """The payload schema version the checkpoint was written with."""
        return int(self.payload.get("version", 0))

    @property
    def is_delta(self) -> bool:
        """Whether this is a delta (apply it to its base before restoring)."""
        return bool(self.payload.get("delta", False))

    def validate(self) -> "Checkpoint":
        """Raise ``ValueError`` when the payload cannot be restored.

        A sharded payload that still holds a ``shards`` list is of the
        per-shard format: one service payload per shard (placed by host, or
        later by flow) and no fleet-wide records.  A sharded checkpoint is
        now its coordinator service's payload plus ``num_shards``.  The
        settings and counters must have their types, and each epoch entry
        an integer epoch of its own in ``(last_finalized, max_epoch_seen]``,
        columns of its own and pending counts ``>= 0``: O(epochs + pending
        entries).  The records' columns are checked once, where bytes enter
        (:meth:`from_bytes`).
        """
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint payload version {self.version} is not the "
                f"supported version {CHECKPOINT_VERSION}"
            )
        if self.kind not in ("service", "sharded"):
            raise ValueError(f"unknown checkpoint kind {self.kind!r}")
        if self.kind == "sharded" and "shards" in self.payload:
            raise ValueError(
                "sharded checkpoint in the retired per-shard format (a "
                "'shards' list of shard payloads); a sharded checkpoint is "
                "now its coordinator service's payload plus num_shards, so "
                "this one cannot be restored or merged"
            )
        stats = self.payload.get("stats", {})
        if not isinstance(stats, dict) or not all(map(_is_int, stats.values())):
            raise ValueError(f"checkpoint stats are not integer counters: {stats!r}")
        for marker in ("last_finalized", "max_epoch_seen"):
            value = self.payload.get(marker)
            if value is not None and not _is_int(value):
                raise ValueError(f"checkpoint {marker} is not an epoch: {value!r}")
        retain = self.payload.get("retain_reports")
        if not _is_int(retain):
            raise ValueError(f"checkpoint retain_reports is no integer: {retain!r}")
        noise = self.payload.get("attribute_noise_flows")
        if not isinstance(noise, bool):
            raise ValueError(f"checkpoint attribute_noise_flows is no bool: {noise!r}")
        blame = self.payload.get("blame")
        try:
            from_json(BlameConfig, blame)
        except ValueError as exc:
            raise ValueError(f"checkpoint blame is no blame config: {exc}") from None
        # complete as well as valid (no key is unknown): a capture writes them all
        if len(blame) != len(fields(BlameConfig)):
            raise ValueError(f"checkpoint blame is no complete blame config: {blame!r}")
        epochs = self.payload.get("epochs")
        if not isinstance(epochs, list):
            raise ValueError("checkpoint has no list of epoch entries")
        last_finalized = self.payload.get("last_finalized")
        max_seen = self.payload.get("max_epoch_seen")
        seen, prefixes = set(), set()
        for entry in epochs:
            epoch = entry.get("epoch")
            if (
                not _is_int(epoch)
                or epoch in seen
                or (last_finalized is not None and epoch <= last_finalized)
                or max_seen is None
                or epoch > max_seen
            ):
                raise ValueError(
                    f"checkpoint epoch entry {epoch!r} is not a distinct open "
                    f"epoch (last_finalized={last_finalized}, "
                    f"max_epoch_seen={max_seen})"
                )
            seen.add(epoch)
            prefix = entry["records"]["__columns__"]
            if prefix in prefixes:
                raise ValueError(
                    f"epoch {epoch}: its records are another epoch's "
                    f"(columns {prefix!r})"
                )
            prefixes.add(prefix)
            pending = entry.get("pending_retransmissions")
            if not isinstance(pending, dict) or not all(
                _is_int(count) and count >= 0 for count in pending.values()
            ):
                raise ValueError(
                    f"epoch {epoch}: pending_retransmissions is not a map of "
                    "flows to counts >= 0"
                )
        return self

    def apply_delta(self, delta: "Checkpoint") -> "Checkpoint":
        """Merge a delta taken against this full checkpoint onto it.

        Returns a full checkpoint equal to the one ``checkpoint()`` would
        have produced at the delta's capture time.  The delta's recorded base
        fingerprint must match this checkpoint.  A column merge: the delta's
        table ids are re-expressed in this checkpoint's tables, then each
        epoch is a concatenation keyed by seq — no record is decoded.
        """
        self.validate()
        delta.validate()
        if not delta.is_delta:
            raise ValueError("apply_delta needs a delta checkpoint")
        if self.is_delta:
            raise ValueError(
                "the base of apply_delta must be a full checkpoint, not a delta"
            )
        if delta.kind != self.kind:
            raise ValueError(
                f"delta kind {delta.kind!r} does not match base kind {self.kind!r}"
            )
        builder = ColumnsBuilder(self.columns.links)
        merged = _merge_payload(
            self.payload,
            self.columns,
            delta.payload,
            builder.adopter(delta.columns),
            builder,
        )
        return Checkpoint(merged, builder.build())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The checkpoint in the compact binary container format.

        The bytes are a function of the records: tables are compacted to the
        entries in use, in order of first use, and each column is written in
        the smallest unsigned dtype that holds it.  The body is the ``.npz``
        ``np.savez`` writes for those columns: one stored ``.npy`` member per
        column, whose CRC-32 ``np.load`` checks.
        """
        columns = _compacted(self.payload, self.columns)
        header = {
            "payload": self.payload,
            "tables": {"links": links_to_str(columns.links)},
        }
        header_blob = zlib.compress(
            json.dumps(header, sort_keys=True).encode("utf-8"), _DEFLATE_LEVEL
        )
        body = io.BytesIO()
        with zipfile.ZipFile(body, "w", zipfile.ZIP_STORED) as npz:
            for key, col in columns.arrays.items():
                with npz.open(f"{key}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(
                        member, _narrowed(col), allow_pickle=False
                    )
        return (
            _CONTAINER_HEADER.pack(
                CHECKPOINT_MAGIC, _CONTAINER_VERSION, len(header_blob)
            )
            + header_blob
            + body.getvalue()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Parse a checkpoint from :meth:`to_bytes` output.

        A version-2 container loads as version 3: its identity columns and
        name table are dropped without being read or checked.  Raises
        ``ValueError`` for anything that is not a well-formed container —
        whatever zlib, zipfile, numpy or json made of the damage.
        """
        if not data.startswith(CHECKPOINT_MAGIC):
            raise ValueError(
                "not a checkpoint container (no R7CK magic): only containers "
                "load, JSON checkpoint documents are retired"
            )
        try:
            _, container_version, header_len = _CONTAINER_HEADER.unpack_from(data)
            if container_version != _CONTAINER_VERSION:
                raise ValueError(f"unsupported container v{container_version}")
            header_end = _CONTAINER_HEADER.size + header_len
            header = json.loads(
                zlib.decompress(data[_CONTAINER_HEADER.size : header_end])
            )
            payload = header["payload"]
            dropped = _V2_IDENTITY_COLUMNS if payload.get("version") == 2 else ()
            with np.load(io.BytesIO(data[header_end:]), allow_pickle=False) as blob:
                arrays = {
                    key: _widened(key, blob[key])
                    for key in blob.files
                    if key.rpartition("_")[2] not in dropped
                }
            if dropped:
                payload = {**payload, "version": CHECKPOINT_VERSION}
            checkpoint = cls(
                payload=payload,
                columns=CheckpointColumns(
                    arrays=arrays,
                    links=[link_from_str(text) for text in header["tables"]["links"]],
                ),
            )
            _validate_columns(checkpoint.payload, checkpoint.columns)
        except PathTooLongError:
            raise
        except Exception as exc:
            # the bytes come from outside and every layer below names damage
            # differently (zlib.error, BadZipFile, EOFError, KeyError, ...):
            # callers get the one error type this module raises.
            raise ValueError(
                f"corrupt binary checkpoint: {type(exc).__name__}: {exc}"
            ) from exc
        return checkpoint.validate()

    def save(self, path: Union[str, Path]) -> None:
        """Write the checkpoint's container (:meth:`to_bytes`) to ``path``
        atomically.

        The bytes land in a temp file of this call's own (``tempfile.mkstemp``
        in the target's directory, so created readable by its owner only),
        are flushed to disk (``os.fsync``) and only then moved into place with
        ``os.replace``, so a crash mid-write can never leave a truncated
        checkpoint behind — the previous file (if any) survives intact — and
        concurrent saves to one path leave one of their checkpoints whole.
        The directory is synced afterwards, best effort.
        """
        target = Path(path)
        blob = self.to_bytes()
        fd, name = tempfile.mkstemp(prefix=f".{target.name}.tmp.", dir=target.parent)
        os.close(fd)  # the name is this call's alone
        tmp = Path(name)
        try:
            tmp.write_bytes(blob)
            _fsync(tmp)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        try:
            _fsync(target.parent)
        except OSError:
            pass  # best effort: not every filesystem syncs directories

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        """Read a container written by :meth:`save` (:meth:`from_bytes`)."""
        return cls.from_bytes(Path(path).read_bytes())
