"""The restart path holds columns, not path objects.

What the analysis reads of a record (flow id, hops, count, ``seq``) lives
once, in the tally, and nothing else of a path is kept.  Pinned here:

* a restore folds the checkpoint's columns — nothing is decoded into path
  objects, however the restored service is used afterwards;
* the service never reads a caller's path again for what the tally holds,
  never writes to one and keeps no reference to one;
* a buffered count lands on its flow's *first* arriving record;
* the binary container's bytes are a function of the records (narrow columns,
  compacted tables), and old containers keep loading;
* ``Checkpoint.save`` is durable before it is visible;
* an analyzer, shard worker or agent process starts without the libraries
  only the baselines and the graph export use.
"""

from __future__ import annotations

import gc
import io
import json
import os
import pathlib
import struct
import subprocess
import sys
import threading
import weakref
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import (
    CHECKPOINT_VERSION,
    Checkpoint,
    EpochTick,
    PathEvidence,
    RetransmissionEvidence,
    Zero07Service,
)
from repro.api.checkpoint import (
    COLUMN_DTYPES,
    epoch_columns,
    sorted_difference,
    sorted_union,
)
from repro.core.votes import PathTooLongError
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.testing import epoch_records, report_signature
from repro.topology.elements import DirectedLink

L = [DirectedLink(f"n{i}", f"n{i + 1}") for i in range(8)]
ENGINES = ["arrays", "dicts"]


def make_path(flow_id, links=None, retransmissions=1, src_host=None):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple(
            f"10.0.{flow_id % 7}.1", "10.0.9.2", 1024 + flow_id % 60_000, 443
        ),
        src_host=src_host or f"h{flow_id % 5}",
        dst_host="h9",
        links=list(L[flow_id % 4 : flow_id % 4 + 3] if links is None else links),
        complete=flow_id % 3 != 0,
        retransmissions=retransmissions,
        epoch=0,
    )


def paths(flows, first_seq):
    """One ``PathEvidence`` per flow, seqs two apart from ``first_seq``."""
    return [
        PathEvidence(epoch=0, seq=first_seq + 2 * i, path=make_path(flow))
        for i, flow in enumerate(flows)
    ]


def bumps(flows, first_seq, count=1):
    return [
        RetransmissionEvidence(epoch=0, flow_id=flow, retransmissions=count, seq=first_seq + i)
        for i, flow in enumerate(flows)
    ]


@contextmanager
def no_decode(monkeypatch):
    """``decode_paths``, the one decoder of records into path objects, raises."""

    def boom(*args, **kwargs):
        raise AssertionError("a record was decoded into a path object")

    with monkeypatch.context() as patch:
        patch.setattr("repro.api.wire.decode_paths", boom)
        yield


def document(checkpoint: Checkpoint) -> Checkpoint:
    """The checkpoint but for the counter of analysis runs: a freshly
    restored service has no cached view to answer a query from."""
    stats = dict(checkpoint.payload["stats"])
    del stats["reports_materialized"]
    return Checkpoint({**checkpoint.payload, "stats": stats}, checkpoint.columns)


def first_epoch_records(checkpoint: Checkpoint) -> tuple:
    """The first open epoch's record columns, hops as links."""
    entry = checkpoint.payload["epochs"][0]
    cols = epoch_columns(entry, checkpoint.columns, ("seq", "flow", "retr", "len"))
    hops = epoch_columns(entry, checkpoint.columns, ("hop",))["hop"].tolist()
    links = list(map(checkpoint.columns.links.__getitem__, hops))
    return {name: col.tolist() for name, col in cols.items()}, links


#: the shipped containers, written by an earlier commit (version 2).
FIXTURES = pathlib.Path(__file__).parent / "data" / "checkpoints"


def split_container(blob: bytes):
    """``(prefix, header)``: the container's bytes up to its body, and the
    parsed JSON header."""
    _, _, header_len = struct.unpack_from("<4sIQ", blob)
    at = struct.calcsize("<4sIQ")
    header = json.loads(zlib.decompress(blob[at : at + header_len]))
    return blob[: at + header_len], header


def npz_of(blob: bytes):
    """The container's column arrays exactly as written (no widening)."""
    prefix, _ = split_container(blob)
    with np.load(io.BytesIO(blob[len(prefix) :])) as body:
        return {key: body[key] for key in body.files}


# ----------------------------------------------------------------------
# (a) restore decodes nothing
# ----------------------------------------------------------------------
class TestRestoreDecodesNothing:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_restored_service_lives_on_without_a_decode(self, engine, monkeypatch):
        """restore → ingest (in order, a late chunk, counts for restored
        flows, a buffered count) → report → checkpoint → restore again: the
        uninterrupted service's document at every step, no path decoded."""
        steps = [
            lambda s: s.ingest_batch(paths(range(20, 30), 40)),  # in order
            lambda s: s.ingest_batch(paths(range(40, 50), 80)),
            lambda s: s.ingest_batch(paths(range(30, 40), 60)),  # overtaken: late
            lambda s: s.ingest(bumps([3], 200, count=2)[0]),  # a restored flow
            lambda s: s.ingest_batch(bumps([0, 1, 2, 3, 25, 45, 0, 1, 2, 35], 210)),
            lambda s: s.ingest(bumps([900], 230, count=4)[0]),  # no path yet: buffered
            lambda s: s.ingest(PathEvidence(0, 232, make_path(900))),
            lambda s: s.ingest_batch(bumps([901], 234, count=3) + bumps([5] * 8, 240)),
            lambda s: s.ingest_batch(paths([901] + list(range(60, 70)), 260)),
        ]
        uninterrupted = Zero07Service(engine=engine)
        seed = Zero07Service(engine=engine)
        for service in (uninterrupted, seed):
            service.ingest_batch(paths(range(20), 0) + bumps([4, 4, 7], 190))
        with no_decode(monkeypatch):
            resumed = Zero07Service.restore(
                Checkpoint.from_bytes(seed.checkpoint().to_bytes())
            )
        for step in steps:
            step(uninterrupted)
            expected = report_signature(uninterrupted.report(0))
            live = document(uninterrupted.checkpoint())
            with no_decode(monkeypatch):
                step(resumed)
                report = resumed.report(0)
                checkpoint = resumed.checkpoint()
                blob = checkpoint.to_bytes()
            assert report_signature(report) == expected
            assert document(checkpoint) == live
            with no_decode(monkeypatch):
                resumed = Zero07Service.restore(Checkpoint.from_bytes(blob))
        assert uninterrupted.stats.out_of_order_events == 10

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_merged_delta_restores_through_the_same_body(self, engine, monkeypatch):
        service = Zero07Service(engine=engine)
        service.ingest_batch(paths(range(12), 0))
        base = service.checkpoint()
        service.ingest_batch(paths(range(12, 24), 40) + bumps([1, 2, 13], 100))
        with no_decode(monkeypatch):
            delta = Checkpoint.from_bytes(service.checkpoint(base=base).to_bytes())
            restored = Zero07Service.restore(base.apply_delta(delta))
            again = restored.checkpoint()
        assert document(again) == document(service.checkpoint())
        assert report_signature(restored.report(0)) == report_signature(service.report(0))


# ----------------------------------------------------------------------
# (b) a caller's path object stays the caller's
# ----------------------------------------------------------------------
class TestCallerPathsStayTheCallers:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bulk", [False, True])
    def test_mutating_a_path_after_ingest_changes_nothing(self, engine, bulk):
        """What the analysis reads was written into the tally at ingest: a
        source bumping its object afterwards (the monitoring agent's cache
        does) is not seen, with the default ``owned=False``."""
        events = paths(range(10), 0)
        service = Zero07Service(engine=engine)
        if bulk:
            service.ingest_batch(events)
        else:
            for event in events:
                service.ingest(event)
        report = report_signature(service.report(0))
        before = service.checkpoint()
        for event in events:
            event.path.retransmissions += 5
            event.path.links.append(L[7])
        service.ingest(bumps([2], 100, count=0)[0])  # drop the cached view
        assert report_signature(service.report(0)) == report
        assert [
            (seq, count, links) for seq, _, count, links in epoch_records(service, 0)
        ] == [(2 * flow, 1, L[flow % 4 : flow % 4 + 3]) for flow in range(10)]
        later = Checkpoint.from_bytes(service.checkpoint().to_bytes())
        assert first_epoch_records(later) == first_epoch_records(before)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("count", [5, 10])  # replayed per event / in bulk
    def test_mutating_a_pending_path_changes_nothing(self, engine, count):
        """Per-event ``ingest`` captures what the analysis reads: paths bumped
        and extended while their events still wait in the pending run, with
        no read in between, are not seen."""
        untouched = Zero07Service(engine=engine)
        for event in paths(range(count), 0) + bumps([1], 50, count=2):
            untouched.ingest(event)
        events = paths(range(count), 0)
        service = Zero07Service(engine=engine)
        for event in events + bumps([1], 50, count=2):
            service.ingest(event)
        for event in events:
            event.path.retransmissions += 5
            event.path.links.append(L[7])
        assert report_signature(service.report(0)) == report_signature(
            untouched.report(0)
        )
        assert service.checkpoint().to_bytes() == untouched.checkpoint().to_bytes()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_per_event_ingest_rejects_and_counts_at_once(self, engine):
        """The eager checks stay eager: a rejected event raises from
        ``ingest`` itself and leaves nothing behind, and a late one is
        counted before the pending run is admitted."""
        service = Zero07Service(engine=engine)
        twin = Zero07Service(engine=engine)
        for event in paths(range(3), 0):
            service.ingest(event)
            twin.ingest(event)
        with pytest.raises(TypeError):
            service.ingest(object())
        with pytest.raises(ValueError, match="at least one known link"):
            service.ingest(PathEvidence(0, 20, make_path(20, links=[])))
        with pytest.raises(PathTooLongError):
            service.ingest(PathEvidence(0, 21, make_path(21, links=L + L[:1])))
        assert service.checkpoint().to_bytes() == twin.checkpoint().to_bytes()

        service.ingest(EpochTick(0))
        service.ingest(PathEvidence(1, 0, make_path(30)))  # joins epoch 1's run
        service.ingest(PathEvidence(0, 22, make_path(31)))  # epoch 0 is closed
        assert service._stats.late_events == 1
        assert len(service._pending) == 1  # counted without admitting the run
        assert service.stats.late_events == 1
        assert service.stats.paths_ingested == 4


class TestNoPathIsPinned:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("delivery", ["batch", "per event", "run"])
    def test_a_delivered_path_dies_with_the_callers_last_reference(
        self, engine, delivery
    ):
        """The service keeps what the analysis reads and no delivered path
        object: once the caller drops its events, the paths are garbage
        before the epoch's tick, and the service still reports on them."""
        events = paths(range(40), 0) + bumps([3, 5], 100)
        refs = [weakref.ref(event.path) for event in events[:40]]
        service = Zero07Service(engine=engine)
        if delivery == "batch":
            service.ingest_batch(events)
        elif delivery == "per event":
            for event in events:
                service.ingest(event)
            service.stats  # admits the pending run
        else:
            service.ingest_run(0, events)
        expected = [(2 * flow, flow, 1 + (flow in (3, 5))) for flow in range(40)]
        del events
        gc.collect()
        assert [ref() for ref in refs] == [None] * 40
        records = epoch_records(service, 0)
        assert [record[:3] for record in records] == expected
        assert service.advance_epoch(0).num_paths_analyzed == 40

    @pytest.mark.parametrize("engine", ENGINES)
    def test_records_read_back_current_and_in_seq_order(self, engine):
        service = Zero07Service(engine=engine)
        service.ingest_batch(paths(range(10, 20), 40))
        service.ingest_batch(paths(range(10), 0))  # late: not in seq order
        service.ingest(bumps([12], 100, count=4)[0])
        before = service.checkpoint()
        records = epoch_records(service, 0)
        assert [record[0] for record in records] == [*range(0, 20, 2), *range(40, 60, 2)]
        by_flow = {flow: (count, links) for _, flow, count, links in records}
        assert by_flow[12] == (5, L[0:3])  # the tally's current count
        assert service.checkpoint() == before  # reading changed nothing
        assert epoch_records(service, 7) == []


# ----------------------------------------------------------------------
# (c) a buffered count lands on the flow's first record of the run
# ----------------------------------------------------------------------
class TestPendingCountBinding:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bulk", [False, True])
    def test_first_arrival_takes_the_buffered_count(self, engine, bulk):
        service = Zero07Service(engine=engine)
        service.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=3))
        run = paths(range(100, 104), 0)
        run.append(PathEvidence(0, 20, make_path(7, L[:3])))  # first trace of 7
        run += paths(range(104, 108), 30)
        run.append(PathEvidence(0, 50, make_path(7, L[2:5])))  # re-traced
        if bulk:
            service.ingest_batch(run)
        else:
            for event in run:
                service.ingest(event)
        counts = {
            seq: count for seq, flow, count, _ in epoch_records(service, 0) if flow == 7
        }
        assert counts == {20: 1 + 3, 50: 1}
        # later updates bind to the latest arrival, as ever
        service.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=2))
        assert {
            seq: count for seq, flow, count, _ in epoch_records(service, 0) if flow == 7
        } == {20: 4, 50: 3}


# ----------------------------------------------------------------------
# (d) the container: narrow on write, widen on read, canonical bytes
# ----------------------------------------------------------------------
class TestCanonicalContainer:
    def test_columns_are_written_narrow_and_read_back_canonical(self):
        service = Zero07Service()
        service.ingest_batch(paths(range(300), 0) + bumps([5, 6], 900))
        checkpoint = service.checkpoint()
        blob = checkpoint.to_bytes()
        written = npz_of(blob)
        assert written["e0_seq"].dtype == np.uint16  # seqs reach 598
        assert written["e0_retr"].dtype == np.uint8
        assert written["e0_hop"].dtype == np.uint8
        assert written["e0_len"].dtype == np.uint8
        loaded = Checkpoint.from_bytes(blob)
        for key, col in loaded.columns.arrays.items():
            assert col.dtype == COLUMN_DTYPES[key.rpartition("_")[2]], key
            assert (col == written[key]).all()
        assert loaded == checkpoint
        # a second trip changes nothing: arrays, tables, bytes
        again = Checkpoint.from_bytes(loaded.to_bytes())
        assert loaded.to_bytes() == blob
        assert again.columns.links == loaded.columns.links
        for key, col in loaded.columns.arrays.items():
            assert again.columns.arrays[key].dtype == col.dtype
            assert (again.columns.arrays[key] == col).all()

    @pytest.mark.parametrize("name", ["full", "base", "delta"])
    def test_the_body_is_the_npz_numpy_would_write(self, name):
        """The body is stored, not deflated: a save and a load run at memory
        speed, for 1.5-1.9x the bytes (the columns barely compress)."""
        checkpoint = Checkpoint.load(FIXTURES / f"{name}.ckpt")  # deflated body
        blob = checkpoint.to_bytes()
        assert checkpoint.to_bytes() == blob  # no timestamp, no ordering left to chance
        assert Checkpoint.from_bytes(blob) == checkpoint
        written = npz_of(blob)
        numpys = io.BytesIO()
        np.savez(numpys, **written)
        body = blob[blob.index(b"PK\x03\x04") :]
        assert body == numpys.getvalue()
        with zipfile.ZipFile(io.BytesIO(body)) as npz:
            members = npz.infolist()
        assert [member.filename for member in members] == [f"{key}.npy" for key in written]
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

    def test_a_container_holds_what_the_analysis_reads_and_no_identity(self):
        """Version 3: the header's tables are the links alone, and the body
        holds the seq, flow, count, length and hop columns, and the consumed
        update seqs — no five-tuple, host, ``complete`` or path epoch."""
        service = Zero07Service()
        service.ingest_batch(paths(range(30), 0) + bumps([4], 100))
        blob = service.checkpoint().to_bytes()
        _, header = split_container(blob)
        assert header["payload"]["version"] == CHECKPOINT_VERSION == 3
        assert set(header["tables"]) == {"links"}
        assert set(npz_of(blob)) == {
            f"e0_{name}" for name in ("seq", "flow", "retr", "len", "hop", "rs")
        }

    def test_a_version_2_container_loads_as_version_3_without_its_identity(self):
        """The shipped containers hold nine identity columns and a name
        table, which a load drops unread: damage there changes nothing, and
        a restored service's capture round-trips as version 3."""
        shipped = (FIXTURES / "full.ckpt").read_bytes()
        prefix, header = split_container(shipped)
        written = npz_of(shipped)
        assert header["payload"]["version"] == 2 and header["tables"]["names"]
        identity = ("comp", "pep", "sh", "dh", "sip", "dip", "sp", "dp", "pr")
        assert {f"e0_{name}" for name in identity} <= set(written)
        loaded = Checkpoint.from_bytes(shipped)
        assert loaded.version == CHECKPOINT_VERSION
        assert set(loaded.columns.arrays) == {
            key for key in written if key.rpartition("_")[2] in COLUMN_DTYPES
        }
        for damage in (lambda a: a.astype(np.int64) + 70_000, lambda a: a[:1]):
            body = io.BytesIO()
            np.savez(body, **{
                key: damage(col) if key.rpartition("_")[2] in identity else col
                for key, col in written.items()
            })
            assert Checkpoint.from_bytes(prefix + body.getvalue()) == loaded
        capture = Zero07Service.restore(loaded).checkpoint()
        assert capture == Checkpoint.from_bytes(capture.to_bytes())
        assert capture.version == CHECKPOINT_VERSION

    def test_a_value_past_32_bits_keeps_its_column_int64(self):
        big = 2**32 + 5
        service = Zero07Service()
        service.ingest(PathEvidence(0, 0, make_path(1)))
        service.ingest(PathEvidence(0, 1, make_path(big)))
        blob = service.checkpoint().to_bytes()
        written = npz_of(blob)
        assert written["e0_flow"].dtype == np.int64
        assert all(col.dtype != np.uint64 for col in written.values())
        loaded = Checkpoint.from_bytes(blob)
        assert loaded.columns.arrays["e0_flow"].tolist() == [1, big]
        restored = Zero07Service.restore(loaded)
        assert [flow for _, flow, _, _ in epoch_records(restored, 0)] == [1, big]

    def test_a_negative_value_is_never_wrapped(self):
        """A column with a value below 0 keeps its signed dtype: here a flow
        id, since ingest refuses retransmission counts below 0."""
        service = Zero07Service()
        service.ingest(PathEvidence(0, 0, make_path(-5)))
        loaded = Checkpoint.from_bytes(service.checkpoint().to_bytes())
        assert loaded.columns.arrays["e0_flow"].tolist() == [-5]
        restored = Zero07Service.restore(loaded)
        assert [flow for _, flow, _, _ in epoch_records(restored, 0)] == [-5]

    def test_the_bytes_depend_on_the_ingest_history_alone(self):
        """Same deliveries, different lives: queries, checkpoints and
        restores in between leave no trace in ``to_bytes()`` (tables are
        compacted to the entries in use, in order of first use) — but for the
        counter that counts the queries themselves."""
        deliveries = [
            paths(range(30, 40), 60),
            paths(range(10), 0),  # late
            bumps([31, 32, 3, 3, 3, 3, 3, 3], 200),
            paths(range(40, 50), 300),
        ]
        plain = Zero07Service()
        busy = Zero07Service()
        for delivery in deliveries:
            plain.ingest_batch(delivery)
        busy.ingest_batch(deliveries[0])
        busy.report(0)
        base = busy.checkpoint()
        busy.ingest_batch(deliveries[1])
        epoch_records(busy, 0)
        busy.checkpoint(base=base)
        busy.ingest_batch(deliveries[2])
        busy = Zero07Service.restore(Checkpoint.from_bytes(busy.checkpoint().to_bytes()))
        busy.report(0)
        busy.ingest_batch(deliveries[3])
        busy.stats.reports_materialized = plain.stats.reports_materialized
        assert busy.checkpoint().to_bytes() == plain.checkpoint().to_bytes()
        # and a delta merged onto its base serializes like the full capture
        merged = base.apply_delta(
            Checkpoint.from_bytes(busy.checkpoint(base=base).to_bytes())
        )
        assert merged.to_bytes() == plain.checkpoint().to_bytes()


class TestSortedSetOperations:
    """The delta path's set operations are numpy's, computed by sort."""

    @staticmethod
    def _column(rng, dtype):
        shape = rng.choice(["empty", "one", "repeats", "wide"])
        size = {"empty": 0, "one": 1}.get(shape, int(rng.integers(2, 60)))
        high = 8 if shape == "repeats" else int(rng.choice([300, 2**40]))
        high = min(high, int(np.iinfo(dtype).max))
        return rng.integers(0, high, size).astype(dtype)  # unsorted

    def test_they_equal_union1d_and_setdiff1d(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            dtype = rng.choice([np.int64, np.int32, np.uint16, np.uint8])
            a, b = self._column(rng, dtype), self._column(rng, dtype)
            if rng.random() < 0.2:  # overlapping columns
                b = np.concatenate((b, rng.permutation(a)[: len(a) // 2]))
            for ours, numpys in ((sorted_union, np.union1d), (sorted_difference, np.setdiff1d)):
                got, want = ours(a, b), numpys(a, b)
                assert got.dtype == want.dtype and np.array_equal(got, want), (a, b)


# ----------------------------------------------------------------------
# Checkpoint.save: durable before visible
# ----------------------------------------------------------------------
class TestDurableSave:
    def _service(self):
        service = Zero07Service()
        service.ingest_batch(paths(range(10), 0))
        return service

    def test_the_bytes_are_synced_before_the_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "service.ckpt"
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # what is being synced, and how much of it is there already
            calls.append(("fsync", os.readlink(f"/proc/self/fd/{fd}"), os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", str(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        checkpoint = self._service().checkpoint()
        checkpoint.save(target)
        monkeypatch.undo()
        size = len(target.read_bytes())
        kinds = [call[0] for call in calls]
        assert kinds == ["fsync", "replace", "fsync"]
        (_, synced, synced_size), (_, src, dst), (_, directory, _) = calls
        assert synced == src and ".tmp." in src and dst == str(target)
        assert synced_size == size  # the whole file, before it became visible
        assert directory == str(tmp_path)
        assert Checkpoint.load(target) == checkpoint

    def test_a_failing_sync_keeps_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "service.ckpt"
        service = self._service()
        service.checkpoint().save(target)
        good = target.read_bytes()
        service.ingest_batch(paths(range(10, 20), 40))

        def failing(fd):
            raise OSError("I/O error reported at fsync")

        monkeypatch.setattr(os, "fsync", failing)
        with pytest.raises(OSError, match="reported at fsync"):
            service.checkpoint().save(target)
        monkeypatch.undo()
        assert target.read_bytes() == good
        assert list(tmp_path.glob(".*.tmp.*")) == []

    def test_a_directory_that_cannot_be_synced_is_not_an_error(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "service.ckpt"
        real_fsync = os.fsync

        def picky(fd):
            if os.path.isdir(f"/proc/self/fd/{fd}"):
                raise OSError("directories cannot be synced here")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", picky)
        self._service().checkpoint().save(target)
        monkeypatch.undo()
        assert Checkpoint.load(target).payload["stats"]["paths_ingested"] == 10

    def test_concurrent_saves_to_one_path_leave_one_checkpoint_whole(self, tmp_path):
        """Every save writes a temp file of its own: threads saving to one
        path never take each other's half-written file."""
        target = tmp_path / "service.ckpt"
        fixtures = pathlib.Path(__file__).parent / "data" / "checkpoints"
        checkpoints = [Checkpoint.load(fixtures / f"{name}.ckpt") for name in ("full", "base")]
        checkpoints.append(self._service().checkpoint())
        blobs = [checkpoint.to_bytes() for checkpoint in checkpoints]
        errors = []
        start = threading.Barrier(len(checkpoints))

        def saver(checkpoint):
            start.wait()
            for _ in range(25):
                try:
                    checkpoint.save(target)
                except Exception as exc:  # collected, asserted below
                    errors.append(exc)

        for _ in range(8):
            threads = [threading.Thread(target=saver, args=(c,)) for c in checkpoints]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert target.read_bytes() in blobs
            assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_a_launch_imports_neither_networkx_nor_scipy():
    modules = "repro.cli, repro.api, repro.fleet.analyzer, repro.fleet.agent, repro.loadgen"
    code = (
        f"import sys, {modules}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout.strip()) == (0, "[]"), done.stderr
