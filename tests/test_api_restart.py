"""The restart path holds columns, not path objects.

What the analysis reads of a record (flow id, hops, count) lives once, in the
tally; the service keeps the record's ``seq`` and its identity cargo beside
it.  Pinned here:

* a restore adopts the checkpoint's columns — nothing is decoded into path
  objects, however the restored service is used afterwards;
* the service never reads a caller's path again for what the tally holds, and
  never writes to one;
* a buffered count lands on its flow's *first* arriving record;
* the binary container's bytes are a function of the records (narrow columns,
  compacted tables), and old containers keep loading;
* ``Checkpoint.save`` is durable before it is visible;
* an analyzer, shard worker or agent process starts without the libraries
  only the baselines and the graph export use.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import struct
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import (
    Checkpoint,
    PathEvidence,
    RetransmissionEvidence,
    Zero07Service,
)
from repro.api.checkpoint import COLUMN_DTYPES
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.testing import report_signature
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
    """``decode_paths`` raises, wherever it is called from."""

    def boom(*args, **kwargs):
        raise AssertionError("a record was decoded into a path object")

    with monkeypatch.context() as patch:
        patch.setattr("repro.api.checkpoint.decode_paths", boom)
        patch.setattr("repro.api.service.decode_paths", boom)
        yield


def document(checkpoint) -> dict:
    """The checkpoint's JSON document, but for the counter of analysis runs: a
    freshly restored service has no cached view to answer a query from."""
    payload = json.loads(checkpoint.to_json())
    del payload["stats"]["reports_materialized"]
    return payload


def npz_of(blob: bytes):
    """The container's column arrays exactly as written (no widening)."""
    _, _, header_len = struct.unpack_from("<4sIQ", blob)
    with np.load(io.BytesIO(blob[struct.calcsize("<4sIQ") + header_len :])) as body:
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
        assert uninterrupted.stats.fallback_events == 0

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
        before = service.checkpoint().to_json()
        for event in events:
            event.path.retransmissions += 5
            event.path.links.append(L[7])
        service.ingest(bumps([2], 100, count=0)[0])  # drop the cached view
        assert report_signature(service.report(0)) == report
        assert [
            (seq, path.retransmissions, path.links)
            for seq, path in service.evidence_for_epoch(0)
        ] == [(2 * flow, 1, L[flow % 4 : flow % 4 + 3]) for flow in range(10)]
        later = Checkpoint.from_json(service.checkpoint().to_json()).materialize()
        records = later.payload["epochs"][0]["records"]
        assert records == Checkpoint.from_json(before).materialize().payload[
            "epochs"
        ][0]["records"]


class TestEvidenceForEpochIsAnEdge:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_returned_paths_are_fresh_and_current(self, engine):
        service = Zero07Service(engine=engine)
        service.ingest_batch(paths(range(10, 20), 40))
        service.ingest_batch(paths(range(10), 0))  # late: not in seq order
        service.ingest(bumps([12], 100, count=4)[0])
        report = report_signature(service.report(0))
        before = service.checkpoint().to_json()
        records = service.evidence_for_epoch(0)
        assert [seq for seq, _ in records] == sorted(seq for seq, _ in records)
        by_flow = {path.flow_id: path for _, path in records}
        assert by_flow[12].retransmissions == 5  # the tally's current count
        assert by_flow[12] == make_path(12, retransmissions=5)  # identity intact
        for _, path in records:  # a caller that ignores "read-only"
            path.retransmissions += 9
            path.links.clear()
            path.src_host = "elsewhere"
        assert service.checkpoint().to_json() == before
        service.ingest(bumps([12], 101, count=0)[0])  # drop the cached view
        assert report_signature(service.report(0)) == report
        fresh = service.evidence_for_epoch(0)
        assert all(a is not b for (_, a), (_, b) in zip(records, fresh))
        assert {p.flow_id: p for _, p in fresh}[12] == make_path(12, retransmissions=5)
        assert service.evidence_for_epoch(7) == []


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
            assert service.stats.fallback_events == 0  # it was the vector path
        else:
            for event in run:
                service.ingest(event)
        counts = {
            seq: path.retransmissions
            for seq, path in service.evidence_for_epoch(0)
            if path.flow_id == 7
        }
        assert counts == {20: 1 + 3, 50: 1}
        # later updates bind to the latest arrival, as ever
        service.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=2))
        assert {
            seq: path.retransmissions
            for seq, path in service.evidence_for_epoch(0)
            if path.flow_id == 7
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
        assert again.columns.names == loaded.columns.names
        assert again.columns.links == loaded.columns.links
        for key, col in loaded.columns.arrays.items():
            assert again.columns.arrays[key].dtype == col.dtype
            assert (again.columns.arrays[key] == col).all()

    @pytest.mark.parametrize("name", ["full", "base", "delta"])
    def test_the_body_is_the_npz_numpy_would_write_but_deflated_faster(self, name):
        fixtures = pathlib.Path(__file__).parent / "data" / "checkpoints"
        checkpoint = Checkpoint.load(fixtures / f"{name}.ckpt")
        blob = checkpoint.to_bytes()
        assert checkpoint.to_bytes() == blob  # no timestamp, no ordering left to chance
        assert Checkpoint.from_bytes(blob) == checkpoint
        written = npz_of(blob)
        numpys = io.BytesIO()
        np.savez_compressed(numpys, **written)  # the parent's writer, level 6
        with np.load(io.BytesIO(numpys.getvalue())) as body:
            assert body.files == list(written)
            assert all(body[key].dtype == col.dtype for key, col in written.items())
        body_len = len(blob) - blob.index(b"PK\x03\x04")
        assert body_len <= 1.06 * len(numpys.getvalue())

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
        assert [p.flow_id for _, p in restored.evidence_for_epoch(0)] == [1, big]

    def test_a_negative_value_is_never_wrapped(self):
        service = Zero07Service()
        service.ingest(PathEvidence(0, 0, make_path(1)))
        service.ingest(bumps([1], 1, count=-3)[0])
        loaded = Checkpoint.from_bytes(service.checkpoint().to_bytes())
        assert loaded.columns.arrays["e0_retr"].tolist() == [-2]

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
        busy.evidence_for_epoch(0)
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
