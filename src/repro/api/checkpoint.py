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

In memory a checkpoint's records are **columns** from capture to restore
(:class:`CheckpointColumns`: per-epoch arrays of sequence numbers, flow ids,
CSR link ids, five-tuple components, ... over shared name/link tables).
``checkpoint()`` copies what the analysis reads out of the tally's buffers
and columnizes the identity of each record at most once, a delta is a column
diff against its base, :meth:`Checkpoint.apply_delta` a column merge, and a
restore adopts the columns — the tally is folded from them and the identity
columns become the restored service's own; path objects are decoded only at
the edges (:meth:`Checkpoint.materialize`, a service's evidence listing).

Two serializations of the same payload exist:

* **Binary** (format version 2, the default for :meth:`Checkpoint.save`) — a
  small container: magic ``R7CK``, a zlib-compressed JSON header carrying the
  configuration, counters and name/link tables, followed by an ``npz`` blob
  of the columns, each in the smallest unsigned dtype that holds it (widened
  back to the in-memory dtypes on load).
* **JSON** (format version 1 and 2) — plain dicts/lists/strings/numbers (see
  :mod:`repro.api.events` for the path/link codecs).  Human-readable and
  diffable; an edge codec: :meth:`Checkpoint.to_json` /
  :meth:`Checkpoint.materialize` build the per-record path dicts,
  :meth:`Checkpoint.from_json` columnizes them once.  Typically ~20x the
  binary size.

**Delta checkpoints** carry only the evidence that arrived since a full base
checkpoint (new records, records whose retransmission counts changed, new
consumed update seqs) plus the current counters.
:meth:`Checkpoint.apply_delta` merges a delta onto its base — verified by a
structural fingerprint — yielding a full checkpoint again.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from operator import attrgetter
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

from repro.api.events import link_from_str, link_to_str, path_to_dict
from repro.core.arrays import ItemIndex
from repro.core.blame import BlameConfig
from repro.core.votes import PathTooLongError, check_hop_counts
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple

#: payload schema version written by :meth:`Zero07Service.checkpoint`;
#: version 2 added delta checkpoints and the binary container.
CHECKPOINT_VERSION = 2

#: payload versions :meth:`Checkpoint.validate` accepts (v1 stays readable).
SUPPORTED_CHECKPOINT_VERSIONS = (1, 2)

#: magic prefix of the binary container (followed by a container version).
CHECKPOINT_MAGIC = b"R7CK"

#: binary container layout version (orthogonal to the payload version).
_CONTAINER_VERSION = 1

#: magic + u32 container version + u64 compressed-header length.
_CONTAINER_HEADER = struct.Struct("<4sIQ")

#: deflate level of the header and the ``npz`` body.  A save stalls the
#: ingest thread, and the wide columns (``seq``, ``flow``, ``sp``) barely
#: compress at any level: level 1 writes ~4 % more bytes than numpy's fixed 6
#: in about a third of the time; the header (the name/link tables, ~90 KB of
#: JSON on a 2.8k-link fabric) deflates in a fifth of level 6's time to
#: ~8 KB more.  Readers do not care (zlib and ``np.load`` inflate either).
_DEFLATE_LEVEL = 1


def blame_to_dict(config: BlameConfig) -> Dict[str, Any]:
    """Serialize a :class:`BlameConfig` to JSON-ready primitives."""
    return {
        "threshold_fraction": config.threshold_fraction,
        "adjustment": config.adjustment,
        "min_flow_support": config.min_flow_support,
        "max_links": config.max_links,
    }


def blame_from_dict(data: Dict[str, Any]) -> BlameConfig:
    """Rebuild a :class:`BlameConfig` from :func:`blame_to_dict` output."""
    return BlameConfig(
        threshold_fraction=float(data["threshold_fraction"]),
        adjustment=data["adjustment"],
        min_flow_support=int(data["min_flow_support"]),
        max_links=int(data["max_links"]),
    )


# ----------------------------------------------------------------------
# record columns (the in-memory form and the binary body)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointColumns:
    """Checkpointed records: dense per-epoch columns + shared interner tables.

    ``arrays`` maps ``"{prefix}_{column}"`` to one array per column of every
    epoch (see ``_EPOCH_COLUMNS``); the ``sh``/``dh``/``sip``/``dip`` columns
    hold ids into ``names`` and ``hop`` ids into ``links``.  ``links`` holds
    one :class:`DirectedLink` object per table entry; every decoded path
    shares them, and a restore interns each into the tally's index once.
    Arrays are never written after construction, so checkpoints may share them.
    """

    arrays: Dict[str, np.ndarray]
    names: List[str]
    links: List[Any]


#: every array of one epoch and its in-memory dtype: the per-record columns
#: in encode order, the CSR hop ids (``len`` delimits them) and the consumed
#: retransmission-update seqs.
COLUMN_DTYPES = {
    "seq": np.int64,
    "flow": np.int64,
    "retr": np.int64,
    "comp": np.uint8,
    "pep": np.int64,
    "len": np.int32,
    "sh": np.int32,
    "dh": np.int32,
    "sip": np.int32,
    "dip": np.int32,
    "sp": np.int32,
    "dp": np.int32,
    "pr": np.int32,
    "hop": np.int32,
    "rs": np.int64,
}
_EPOCH_COLUMNS = tuple(COLUMN_DTYPES)
_RECORD_COLUMNS = _EPOCH_COLUMNS[:-2]

#: the record columns that hold ids into the name table.
_NAME_COLUMNS = ("sh", "dh", "sip", "dip")

#: the record columns the analysis never reads — who the flow was, not what
#: it voted for: ``complete``, path epoch, hosts and five-tuple.
IDENTITY_COLUMNS = ("comp", "pep", "sh", "dh", "sip", "dip", "sp", "dp", "pr")

#: the columns a delta capture compares with its base, and a fingerprint reads.
DIFF_COLUMNS = ("seq", "retr", "rs")

#: one epoch's arrays by bare column name.
EpochColumns = Dict[str, np.ndarray]


class ColumnsBuilder:
    """Assembles a checkpoint's :class:`CheckpointColumns` epoch by epoch.

    Epochs arrive as a live service's columns (capture), as JSON records
    (``from_json``) or as columns of another checkpoint (delta merge, shard
    split) and end up under one pair of name/link tables.
    """

    __slots__ = ("arrays", "names", "links")

    def __init__(self, names: Iterable = (), links: Iterable = ()) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self.names = ItemIndex(names)
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
        """A function giving an epoch entry of ``source`` in this builder's tables.

        ``source``'s table entries are interned here once; re-expressing an
        epoch's ids then costs one take per id column.
        """
        name_map = self.names.fast_ids(source.names, dtype=np.int32)
        link_map = self.links.fast_ids(source.links, dtype=np.int32)

        def adopt(entry: Dict[str, Any]) -> EpochColumns:
            cols = epoch_columns(entry, source)
            for name in _NAME_COLUMNS:
                cols[name] = name_map[cols[name]]
            cols["hop"] = link_map[cols["hop"]]
            return cols

        return adopt

    def build(self) -> CheckpointColumns:
        """The assembled columns (the builder must not be used afterwards)."""
        return CheckpointColumns(self.arrays, self.names.items, self.links.items)


def _encode_records(
    records: List[list], retransmission_seqs: List[int], builder: ColumnsBuilder
) -> EpochColumns:
    """Columnize one epoch's JSON ``[[seq, path_dict], ...]`` records.

    Links are interned as the document's ``"src->dst"`` strings.
    """
    cols: Dict[str, list] = {name: [] for name in _RECORD_COLUMNS}
    hops: List[int] = []
    intern_name = builder.names.intern
    intern_link = builder.links.intern
    for seq, pd in records:
        ft = pd["five_tuple"]
        link_strs = pd["links"]
        cols["seq"].append(seq)
        cols["flow"].append(pd["flow_id"])
        cols["retr"].append(pd["retransmissions"])
        cols["comp"].append(1 if pd["complete"] else 0)
        cols["pep"].append(pd["epoch"])
        cols["len"].append(len(link_strs))
        cols["sh"].append(intern_name(pd["src_host"]))
        cols["dh"].append(intern_name(pd["dst_host"]))
        cols["sip"].append(intern_name(ft[0]))
        cols["dip"].append(intern_name(ft[1]))
        cols["sp"].append(ft[2])
        cols["dp"].append(ft[3])
        cols["pr"].append(ft[4])
        hops.extend(map(intern_link, link_strs))
    cols["hop"] = hops
    cols["rs"] = retransmission_seqs
    return {
        name: np.asarray(col, dtype=COLUMN_DTYPES[name]) for name, col in cols.items()
    }


def encode_identity(paths: List[DiscoveredPath], names: ItemIndex) -> EpochColumns:
    """The :data:`IDENTITY_COLUMNS` of path objects, names interned in ``names``.

    One C-level pass per column.  Flow id, links and retransmission count
    are not read: the tally a path was folded into holds those.
    """
    count = len(paths)

    def column(name: str, attr: str, source: list) -> np.ndarray:
        return np.fromiter(
            map(attrgetter(attr), source), dtype=COLUMN_DTYPES[name], count=count
        )

    def ids(attr: str, source: list) -> np.ndarray:
        return names.fast_ids(list(map(attrgetter(attr), source)), dtype=np.int32)

    five_tuples = list(map(attrgetter("five_tuple"), paths))
    return {
        "comp": column("comp", "complete", paths),
        "pep": column("pep", "epoch", paths),
        "sh": ids("src_host", paths),
        "dh": ids("dst_host", paths),
        "sip": ids("src_ip", five_tuples),
        "dip": ids("dst_ip", five_tuples),
        "sp": column("sp", "src_port", five_tuples),
        "dp": column("dp", "dst_port", five_tuples),
        "pr": column("pr", "protocol", five_tuples),
    }


def epoch_columns(
    entry: Dict[str, Any],
    columns: CheckpointColumns,
    names: Sequence[str] = _EPOCH_COLUMNS,
) -> EpochColumns:
    """The arrays (all, or just ``names``) one payload epoch entry points at."""
    prefix = entry["records"]["__columns__"]
    return {name: columns.arrays[f"{prefix}_{name}"] for name in names}


def decode_paths(
    cols: EpochColumns, columns: CheckpointColumns
) -> Tuple[List[int], List[DiscoveredPath]]:
    """Rebuild ``(seqs, paths)`` from one epoch's columns.

    Paths are constructed fresh on every call (so repeated restores from one
    checkpoint never share mutable path objects) but share the table's
    :class:`DirectedLink` objects and strings.
    """
    seqs = cols["seq"].tolist()
    flows = cols["flow"].tolist()
    retrs = cols["retr"].tolist()
    comps = cols["comp"].tolist()
    peps = cols["pep"].tolist()
    lens = cols["len"].tolist()
    sps = cols["sp"].tolist()
    dps = cols["dp"].tolist()
    prs = cols["pr"].tolist()
    names = columns.names
    links = columns.links
    # Hoist every table lookup out of the record loop: whole-column maps run
    # through C iterators, the loop then only assembles per-record objects.
    src_ips = list(map(names.__getitem__, cols["sip"].tolist()))
    dst_ips = list(map(names.__getitem__, cols["dip"].tolist()))
    src_hosts = list(map(names.__getitem__, cols["sh"].tolist()))
    dst_hosts = list(map(names.__getitem__, cols["dh"].tolist()))
    hop_links = list(map(links.__getitem__, cols["hop"].tolist()))
    paths: List[DiscoveredPath] = []
    append = paths.append
    # A service's evidence listing and the JSON codec decode whole epochs, so
    # the per-record dataclass machinery (``__init__`` +
    # ``FiveTuple.__post_init__`` validation) is bypassed: every value was
    # validated when a service first ingested it, and both classes store
    # their fields in a plain ``__dict__``.
    new_path = DiscoveredPath.__new__
    new_ft = FiveTuple.__new__
    set_attr = object.__setattr__
    pos = 0
    for i in range(len(seqs)):
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
    return seqs, paths


def _map_epochs(
    payload: Dict[str, Any],
    convert: Callable[[str, Dict[str, Any]], Dict[str, Any]],
) -> Dict[str, Any]:
    """A copy of ``payload`` with every epoch entry replaced by ``convert``'s.

    ``convert(prefix, entry)`` receives the entry's canonical column prefix,
    ``e{j}`` for the ``j``-th entry.
    """
    return {
        **payload,
        "epochs": [
            convert(f"e{j}", entry) for j, entry in enumerate(payload["epochs"])
        ],
    }


def _validate_columns(payload: Dict[str, Any], columns: CheckpointColumns) -> None:
    """Raise ``ValueError`` unless every epoch's columns are self-consistent.

    Restore and merge trust the columns (ids index tables, ``len`` delimits
    ``hop``, seqs key the records), so whatever was parsed from outside is
    checked here once, vectorized; a path longer than ``MAX_HOPS`` raises
    :class:`~repro.core.votes.PathTooLongError`.
    """
    tables = {name: len(columns.names) for name in _NAME_COLUMNS}
    tables["hop"] = len(columns.links)
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
        for name, size in tables.items():
            ids = cols[name]
            if len(ids) and not 0 <= int(ids.min()) <= int(ids.max()) < size:
                raise ValueError(f"{where}: column {name!r} points outside its table")


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


def delta_rows(seq: np.ndarray, retr: np.ndarray, base: EpochColumns) -> np.ndarray:
    """Indices of the live records a delta against ``base`` has to carry.

    ``seq`` and ``retr`` are the live epoch's columns; a record is carried
    when its seq is new or its retransmission count was bumped since the
    base (count updates mutate existing records in place).  Records keep
    their arrival order, so the base is normally the live epoch's first rows
    and a diff of their counts; otherwise records are matched by seq.
    """
    base_seq, base_retr = base["seq"], base["retr"]
    known = len(base_seq)
    if known <= len(seq) and np.array_equal(seq[:known], base_seq):
        bumped = np.flatnonzero(retr[:known] != base_retr)
        return np.concatenate((bumped, np.arange(known, len(seq))))
    found, at = _matches(seq, base_seq)
    return np.flatnonzero(~found | (base_retr[at] != retr))


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
    merged["rs"] = np.union1d(base["rs"], delta["rs"])
    return merged


#: service-payload keys a merged checkpoint takes verbatim from the delta.
_SERVICE_STATE_KEYS = (
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
    merged: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "kind": delta.get("kind", "service"),
    }
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
    """``columns`` over tables cut down to the entries its records use, in
    order of first use (epoch by epoch, column by column): a function of the
    records alone, whatever tables the service or a merge accumulated them
    under."""
    prefixes = [entry["records"]["__columns__"] for entry in payload["epochs"]]
    arrays = dict(columns.arrays)

    def compact(table: list, names: Sequence[str]) -> list:
        keys = [f"{prefix}_{name}" for prefix in prefixes for name in names]
        ids = np.concatenate([arrays[key] for key in keys] + [np.empty(0, np.int64)])
        if ids.dtype.kind not in "iu" or (
            len(ids) and not 0 <= int(ids.min()) <= int(ids.max()) < len(table)
        ):
            return table  # self-inconsistent: written as it is, the reader rejects it
        first = np.full(len(table), len(ids), dtype=np.int64)
        np.minimum.at(first, ids, np.arange(len(ids)))
        kept = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(ids))]
        new_id = np.zeros(len(table), dtype=np.int32)
        new_id[kept] = np.arange(len(kept), dtype=np.int32)
        for key in keys:
            arrays[key] = new_id[arrays[key]]
        return list(map(table.__getitem__, kept.tolist()))

    names = compact(columns.names, _NAME_COLUMNS)
    links = compact(columns.links, ("hop",))
    return CheckpointColumns(arrays, names, links)


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

    ``payload`` is the JSON-shaped state.  In the working form — what
    ``checkpoint()``, :meth:`from_bytes`, :meth:`from_json` and
    :meth:`apply_delta` return, and what restore, diff and merge operate on —
    the payload's epoch entries carry ``{"__columns__": prefix}`` markers and
    the records themselves live in ``columns``.  The document form
    (``columns is None``: what :meth:`materialize` returns and
    ``Checkpoint(payload=json_document)`` builds) holds the records as JSON
    lists; every operation columnizes it first (:meth:`columnar`).
    """

    payload: Dict[str, Any]
    columns: Optional[CheckpointColumns] = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        """Equal content: the same JSON document, whatever the form."""
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return self.materialize().payload == other.materialize().payload

    @property
    def kind(self) -> str:
        """``"service"`` or ``"sharded"``."""
        return self.payload.get("kind", "service")

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
        now its coordinator service's payload plus ``num_shards``.
        """
        if self.version not in SUPPORTED_CHECKPOINT_VERSIONS:
            raise ValueError(
                f"checkpoint version {self.version} not in supported "
                f"{SUPPORTED_CHECKPOINT_VERSIONS}"
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
        full, delta = self.columnar(), delta.columnar()
        builder = ColumnsBuilder(full.columns.names, full.columns.links)
        merged = _merge_payload(
            full.payload,
            full.columns,
            delta.payload,
            builder.adopter(delta.columns),
            builder,
        )
        return Checkpoint(merged, builder.build())

    # ------------------------------------------------------------------
    # the two forms
    # ------------------------------------------------------------------
    def materialize(self) -> "Checkpoint":
        """The document form: a payload of pure JSON primitives (no columns)."""
        columns = self.columns
        if columns is None:
            return self

        def to_document(_prefix: str, entry: Dict[str, Any]) -> Dict[str, Any]:
            cols = epoch_columns(entry, columns)
            seqs, paths = decode_paths(cols, columns)
            return {
                **entry,
                "records": [
                    [seq, path_to_dict(path)] for seq, path in zip(seqs, paths)
                ],
                "retransmission_seqs": cols["rs"].tolist(),
            }

        return Checkpoint(_map_epochs(self.payload, to_document))

    def columnar(self) -> "Checkpoint":
        """The working form: records columnized, markers in the payload."""
        if self.columns is not None:
            return self
        builder = ColumnsBuilder()

        def to_columns(prefix: str, entry: Dict[str, Any]) -> Dict[str, Any]:
            cols = _encode_records(
                entry["records"], entry["retransmission_seqs"], builder
            )
            return builder.add_epoch(
                prefix, entry["epoch"], cols, entry["pending_retransmissions"]
            )

        payload = _map_epochs(self.payload, to_columns)
        columns = CheckpointColumns(
            builder.arrays,
            builder.names.items,
            [link_from_str(text) for text in builder.links.items],
        )
        _validate_columns(payload, columns)
        return Checkpoint(payload, columns)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        """The checkpoint as a JSON document (round-trips exactly)."""
        return json.dumps(
            self.materialize().payload, indent=indent, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse a checkpoint from :meth:`to_json` output."""
        return cls(payload=json.loads(text)).validate().columnar()

    def to_bytes(self) -> bytes:
        """The checkpoint in the compact binary container format.

        The bytes are a function of the records: tables are compacted to the
        entries in use, in order of first use, and each column is written in
        the smallest unsigned dtype that holds it.
        """
        checkpoint = self.columnar()
        columns = _compacted(checkpoint.payload, checkpoint.columns)
        header = {
            "payload": checkpoint.payload,
            "tables": {
                "names": columns.names,
                "links": [link_to_str(link) for link in columns.links],
            },
        }
        header_blob = zlib.compress(
            json.dumps(header, sort_keys=True).encode("utf-8"), _DEFLATE_LEVEL
        )
        body = io.BytesIO()
        with zipfile.ZipFile(
            body, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
        ) as npz:  # a plain ``.npz``: one ``.npy`` member per column
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

        Raises ``ValueError`` for anything that is not a well-formed
        container — whatever zlib, zipfile, numpy or json made of the damage.
        """
        if len(data) < _CONTAINER_HEADER.size or not data.startswith(
            CHECKPOINT_MAGIC
        ):
            raise ValueError("not a binary checkpoint (bad magic)")
        _, container_version, header_len = _CONTAINER_HEADER.unpack_from(data)
        if container_version != _CONTAINER_VERSION:
            raise ValueError(
                f"unsupported binary checkpoint container v{container_version}"
            )
        header_end = _CONTAINER_HEADER.size + header_len
        try:
            header = json.loads(
                zlib.decompress(data[_CONTAINER_HEADER.size : header_end])
            )
            with np.load(io.BytesIO(data[header_end:]), allow_pickle=False) as blob:
                arrays = {key: _widened(key, blob[key]) for key in blob.files}
            checkpoint = cls(
                payload=header["payload"],
                columns=CheckpointColumns(
                    arrays=arrays,
                    names=header["tables"]["names"],
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

    def save(self, path: Union[str, Path], format: str = "binary") -> None:
        """Write the checkpoint to ``path`` atomically.

        ``format="binary"`` (default) writes the compact container;
        ``format="json"`` writes indented JSON.  Either way the bytes land in
        a temp file first, are flushed to disk (``os.fsync``) and only then
        moved into place with ``os.replace``, so a crash mid-write can never
        leave a truncated checkpoint behind — the previous file (if any)
        survives intact.  The directory is synced afterwards, best effort.
        """
        if format == "json":
            data = (self.to_json(indent=2) + "\n").encode("utf-8")
        elif format == "binary":
            data = self.to_bytes()
        else:
            raise ValueError(f"unknown checkpoint format {format!r}")
        target = Path(path)
        tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
        try:
            tmp.write_bytes(data)
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
        """Read a checkpoint previously written with :meth:`save` (any format)."""
        data = Path(path).read_bytes()
        if data.startswith(CHECKPOINT_MAGIC):
            return cls.from_bytes(data)
        return cls.from_json(data.decode("utf-8"))
