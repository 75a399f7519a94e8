"""Shard-executor battery: process backend equivalence, failure, teardown.

The process backend must be *observationally identical* to the inline
backend (and therefore to the unsharded service) — same reports mid-epoch
and finalized, same checkpoints, across engines and adversarial orderings.
On top of equivalence, the transport has liveness obligations: a dead worker
surfaces as :class:`ShardExecutorError` on the next executor call (never a
hang), ``close()`` is idempotent, and a coordinator killed by ``SIGINT``
leaves no orphan worker processes behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import (
    EpochTick,
    PathEvidence,
    ProcessExecutor,
    RetransmissionEvidence,
    ShardedService,
    ShardExecutorError,
    Zero07Service,
)
from repro.api.sharded import split_by_flow
from repro.discovery.agent import DiscoveredPath
from repro.loadgen import EvidenceLoadGenerator, WorkloadProfile
from repro.routing.fivetuple import FiveTuple
from repro.testing import report_signature
from repro.topology.elements import DirectedLink

L = [DirectedLink(f"n{i}", f"n{i + 1}") for i in range(8)]


def make_path(flow_id, links, retransmissions=1, src_host="h0", epoch=0):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1024 + flow_id, 443),
        src_host=src_host,
        dst_host="h1",
        links=list(links),
        complete=True,
        retransmissions=retransmissions,
        epoch=epoch,
    )


def loadgen_events(epochs=2, **overrides):
    defaults = dict(
        fabric="tiny",
        profile=WorkloadProfile.skewed(repeat_fraction=0.25),
        seed=19,
        events_per_epoch=400,
    )
    defaults.update(overrides)
    return list(EvidenceLoadGenerator(**defaults).stream(epochs))


def run_reports(service, events, epochs):
    """Feed ``events`` batch-wise, collecting mid-epoch + finalized sigs."""
    signatures = []
    try:
        by_epoch: dict = {}
        for event in events:
            by_epoch.setdefault(event.epoch, []).append(event)
        for epoch in sorted(by_epoch):
            body = [e for e in by_epoch[epoch] if not isinstance(e, EpochTick)]
            half = len(body) // 2
            service.ingest_batch(body[:half])
            signatures.append(report_signature(service.report(epoch)))
            service.ingest_batch(body[half:])
            service.ingest(EpochTick(epoch))
            signatures.append(report_signature(service.report(epoch)))
    finally:
        close = getattr(service, "close", None)
        if close is not None:
            close()
    return signatures


class TestProcessBackendEquivalence:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_matches_inline_and_unsharded_on_generated_load(self, engine):
        events = loadgen_events(epochs=2)
        single = run_reports(Zero07Service(engine=engine), list(events), 2)
        inline = run_reports(
            ShardedService(3, engine=engine, backend="inline"), list(events), 2
        )
        process = run_reports(
            ShardedService(3, engine=engine, backend="process"), list(events), 2
        )
        assert single == inline == process

    def test_matches_on_adversarial_orderings(self):
        """Duplicates, update-before-path, out-of-order seqs: the fast paths
        must fall back without diverging from the unsharded service."""
        paths = [
            PathEvidence(epoch=0, seq=i * 3, path=make_path(i, L[i % 4 : i % 4 + 3],
                                                            src_host=f"h{i % 5}"))
            for i in range(30)
        ]
        events = []
        events.append(RetransmissionEvidence(epoch=0, flow_id=4, retransmissions=2, seq=1))
        events.extend(paths[:10])
        events.append(RetransmissionEvidence(epoch=0, flow_id=2, retransmissions=1, seq=2))
        events.append(RetransmissionEvidence(epoch=0, flow_id=2, retransmissions=1, seq=2))
        events.extend(paths[10:20])
        events.append(paths[3])  # out-of-order duplicate re-trace
        events.extend(paths[20:])
        events.append(RetransmissionEvidence(epoch=0, flow_id=999, retransmissions=7, seq=5))
        events.append(EpochTick(0))
        single = run_reports(Zero07Service(), list(events), 1)
        process = run_reports(ShardedService(4, backend="process"), list(events), 1)
        assert single == process

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_report_view_follows_vector_routed_runs(self, engine, backend):
        """Vector-placed runs move the coordinator service's view: a repeat
        query returns the identical object (no second analysis), the query
        after the next run — and after the tick — the unsharded service's
        answer."""
        events = [
            e
            for e in loadgen_events(epochs=1, events_per_epoch=2_400)
            if not isinstance(e, EpochTick)
        ]
        single = Zero07Service(engine=engine)
        with ShardedService(3, engine=engine, backend=backend) as fleet:
            for lo in range(0, len(events), 800):
                run = events[lo : lo + 800]
                fleet.ingest_batch(run)
                single.ingest_batch(run)
                first = fleet.report(0)
                assert report_signature(first) == report_signature(single.report(0))
                assert fleet.report(0) is first
                assert fleet.report() is first
            for service in (fleet, single):
                service.ingest(EpochTick(0))
            assert report_signature(fleet.report(0)) == report_signature(
                single.report(0)
            )
            assert fleet.report(0) is fleet.report(0)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_fallback_events_is_served_without_a_worker_round_trip(
        self, backend, monkeypatch
    ):
        """The fleet-wide counter is the coordinator service's — what an
        unsharded service counts for the same deliveries — so reading,
        checkpointing and restoring it never sync the pipeline."""
        paths = [
            PathEvidence(
                epoch=0,
                seq=i,
                path=make_path(i, L[i % 4 : i % 4 + 3], src_host=f"h{i % 5}"),
            )
            for i in range(96)
        ]

        def feed(service):
            service.ingest_batch(paths[:64])
            service.ingest_batch(paths[32:])  # half redelivered: replayed per event
            return service.report(0)

        single = Zero07Service()
        feed(single)
        expected = single.stats.fallback_events
        assert expected > 0
        with ShardedService(2, backend=backend) as fleet:
            feed(fleet)
            with monkeypatch.context() as patch:
                patch.setattr(type(fleet.executor), "_sync", None, raising=False)
                assert fleet.fallback_events == expected
                checkpoint = fleet.checkpoint()
        with ShardedService.restore(checkpoint, backend=backend) as restored:
            monkeypatch.setattr(type(restored.executor), "_sync", None, raising=False)
            assert restored.fallback_events == expected

    def test_reports_ticks_and_checkpoints_never_round_trip(self, monkeypatch):
        """The process backend answers from its coordinator service: with the
        workers' sync command gone, every report, tick and checkpoint still
        equals the unsharded service's."""
        events = [e for e in loadgen_events(epochs=2) if not isinstance(e, EpochTick)]
        monkeypatch.setattr(ProcessExecutor, "_sync", None)
        single = Zero07Service()
        with ShardedService(2, backend="process") as fleet:
            for epoch in range(2):
                body = [e for e in events if e.epoch == epoch]
                for service in (fleet, single):
                    service.ingest_batch(body)
                assert report_signature(fleet.report(epoch)) == report_signature(
                    single.report(epoch)
                )
                records = fleet.checkpoint().materialize().payload["epochs"]
                assert records == single.checkpoint().materialize().payload["epochs"]
                for service in (fleet, single):
                    service.ingest(EpochTick(epoch))
                assert report_signature(fleet.report()) == report_signature(
                    single.report()
                )

    def test_workers_fewer_than_shards(self):
        events = loadgen_events(epochs=1)
        inline = run_reports(ShardedService(4, backend="inline"), list(events), 1)
        process = run_reports(
            ShardedService(4, backend="process", workers=2), list(events), 1
        )
        assert inline == process

    def test_checkpoint_round_trips_across_backends(self):
        events = [e for e in loadgen_events(epochs=1) if not isinstance(e, EpochTick)]
        with ShardedService(3, backend="process") as fleet:
            fleet.ingest_batch(events[: len(events) // 2])
            checkpoint = fleet.checkpoint()
            mid = report_signature(fleet.report(0))
        from repro.api import Checkpoint

        restored_json = Checkpoint.from_json(checkpoint.to_json())
        for backend in ("inline", "process"):
            restored = ShardedService.restore(restored_json, backend=backend)
            try:
                assert report_signature(restored.report(0)) == mid
                restored.ingest_batch(events[len(events) // 2 :])
                restored.ingest(EpochTick(0))
                final = report_signature(restored.report(0))
            finally:
                restored.close()
            if backend == "inline":
                reference = final
            else:
                assert final == reference


    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_delta_checkpoints_round_trip_across_backends(self, backend):
        """Shards diff against their slice of the base (process workers are
        sent only its seq/count columns); the merge restores on either backend."""
        from repro.api import Checkpoint

        events = [e for e in loadgen_events(epochs=1) if not isinstance(e, EpochTick)]
        third = len(events) // 3
        with ShardedService(3, backend=backend) as fleet:
            fleet.ingest_batch(events[:third])
            base = fleet.checkpoint()
            fleet.ingest_batch(events[third : 2 * third])
            delta = fleet.checkpoint(base=base)
            full = fleet.checkpoint()
            mid = report_signature(fleet.report(0))
        assert delta.is_delta
        assert len(delta.to_bytes()) < len(full.to_bytes())
        merged = base.apply_delta(delta)
        assert merged == full
        assert Checkpoint.from_bytes(base.to_bytes()).apply_delta(
            Checkpoint.from_bytes(delta.to_bytes())
        ) == full
        for other in ("inline", "process"):
            restored = ShardedService.restore(merged, backend=other)
            try:
                assert report_signature(restored.report(0)) == mid
            finally:
                restored.close()


class TestWorkerFailure:
    @pytest.mark.parametrize("run_length", [100, 700])
    def test_dead_worker_raises_instead_of_hanging(self, run_length):
        """Runs the caller still owns are encoded on its thread, but their
        frames are written by the wire lane, so a dead worker surfaces as
        ShardExecutorError at any run length, never a raw BrokenPipeError."""
        events = [
            e
            for e in loadgen_events(epochs=1, events_per_epoch=20_000)
            if not isinstance(e, EpochTick)
        ]
        fleet = ShardedService(2, backend="process")
        try:
            fleet.ingest_batch(events[:run_length])
            executor = fleet.executor
            executor.ping()  # barrier: workers alive and caught up
            executor._processes[0].kill()
            executor._processes[0].join(timeout=10.0)
            deadline = time.monotonic() + 30.0
            with pytest.raises(ShardExecutorError):
                # the death may latch on the wire lane (broken pipe) or at
                # the sync reply; either way it must surface, promptly.
                while time.monotonic() < deadline:
                    fleet.ingest_batch(events[run_length : 2 * run_length])
                    executor.ping()
            with pytest.raises(ShardExecutorError):
                fleet.checkpoint()
        finally:
            fleet.close()  # must not raise or hang after a worker death

    def test_restore_respawns_a_dead_process_fleet(self):
        """Checkpoint restore overwrites every shard's state, so a restore
        onto a fleet whose workers died must respawn the pipeline and come
        back bit-identical instead of staying wedged on the latched error."""
        events = [e for e in loadgen_events(epochs=1) if not isinstance(e, EpochTick)]
        half = len(events) // 2
        fleet = ShardedService(2, backend="process")
        try:
            fleet.ingest_batch(events[:half])
            checkpoint = fleet.checkpoint()
            mid = report_signature(fleet.report(0))
            executor = fleet.executor
            executor.ping()
            executor._processes[0].kill()
            executor._processes[0].join(timeout=10.0)
            deadline = time.monotonic() + 30.0
            with pytest.raises(ShardExecutorError):
                while time.monotonic() < deadline:
                    executor.ping()
                    time.sleep(0.05)
            executor.restore_shards(*split_by_flow(checkpoint, fleet.num_shards))
            assert report_signature(fleet.report(0)) == mid
            fleet.ingest_batch(events[half:])  # the revived fleet keeps working
            fleet.ingest(EpochTick(0))
            final = report_signature(fleet.report(0))
        finally:
            fleet.close()
        single = Zero07Service()
        single.ingest_batch(list(events))
        single.ingest(EpochTick(0))
        assert final == report_signature(single.report(0))

    def test_restore_shards_after_close_raises(self):
        fleet = ShardedService(2, backend="process")
        checkpoint = fleet.checkpoint()
        fleet.close()
        with pytest.raises(ShardExecutorError):
            fleet.executor.restore_shards(*split_by_flow(checkpoint, 2))

    def test_calls_after_close_raise(self):
        fleet = ShardedService(2, backend="process")
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(ShardExecutorError):
            fleet.executor.ping()
        with pytest.raises(ShardExecutorError):
            fleet.ingest_batch(
                [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2]))] * 600
            )

    def test_shard_service_access_raises_on_process_backend(self):
        with ShardedService(2, backend="process") as fleet:
            with pytest.raises(ShardExecutorError):
                fleet.shard(0)


class TestTeardown:
    def test_close_reaps_all_workers(self):
        fleet = ShardedService(3, backend="process")
        processes = list(fleet.executor._processes)
        assert all(p.is_alive() for p in processes)
        fleet.close()
        assert all(not p.is_alive() for p in processes)

    def test_sigint_on_coordinator_leaves_no_orphans(self, tmp_path):
        """SIGINT kills the coordinator; workers must exit on pipe EOF."""
        script = textwrap.dedent(
            """
            import signal, sys
            from repro.api import ShardedService

            fleet = ShardedService(2, backend="process", engine="arrays")
            print(" ".join(str(p.pid) for p in fleet.executor._processes),
                  flush=True)
            signal.pause()
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True,
        )
        try:
            pids = [int(p) for p in child.stdout.readline().split()]
            assert pids
            child.send_signal(signal.SIGINT)
            child.wait(timeout=30)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                alive = []
                for pid in pids:
                    try:
                        os.kill(pid, 0)
                        alive.append(pid)
                    except ProcessLookupError:
                        pass
                if not alive:
                    break
                time.sleep(0.2)
            assert not alive, f"orphaned shard workers: {alive}"
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def test_executor_refuses_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessExecutor(2, {}, workers=0)
