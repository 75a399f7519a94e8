"""Adversarial sharding tests + evidence-ownership (aliasing) equivalence.

Pathological partitions must not break the bit-for-bit agreement between
:class:`ShardedService` and the unsharded service: every flow on one shard,
shards with no traffic at all, single-host fabrics where no flow can exist.
The facade's pending-retransmission buffers must drain when epochs finalize,
and the ``owned=True`` fast path must be observationally identical to the
defensive copying path — with no aliasing leak in either direction.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    EpochTick,
    EvidenceRecorder,
    PathEvidence,
    RetransmissionEvidence,
    ShardedService,
    Zero07Service,
    shard_of_host,
)
from repro.discovery.agent import DiscoveredPath
from repro.loadgen import EvidenceLoadGenerator, WorkloadProfile
from repro.routing.fivetuple import FiveTuple
from repro.testing import evidence_document, report_signature
from repro.topology.clos import ClosParameters
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
        seed=11,
        events_per_epoch=300,
    )
    defaults.update(overrides)
    return list(EvidenceLoadGenerator(**defaults).stream(epochs))


def assert_fleet_matches_single(events, num_shards, epochs, **kwargs):
    single = Zero07Service(retain_reports=epochs, **kwargs)
    single.ingest_batch(events)
    fleet = ShardedService(num_shards=num_shards, retain_reports=epochs, **kwargs)
    fleet.ingest_batch(events)
    for epoch in range(epochs):
        assert report_signature(fleet.report(epoch)) == report_signature(
            single.report(epoch)
        )
    return fleet


class TestPathologicalPartitions:
    def test_all_traffic_on_one_shard(self):
        """Every flow reported by one host: one shard takes all the load."""
        paths = [make_path(i, L[i % 4 : i % 4 + 3], src_host="h0") for i in range(40)]
        events = [PathEvidence(epoch=0, seq=i, path=p) for i, p in enumerate(paths)]
        events.append(EpochTick(0))
        num_shards = 4
        fleet = assert_fleet_matches_single(events, num_shards, epochs=1)
        hot = shard_of_host("h0", num_shards)
        for shard in range(num_shards):
            expected = len(paths) if shard == hot else 0
            assert fleet.shard(shard).stats.paths_ingested == expected

    def test_more_shards_than_hosts_leaves_shards_empty(self):
        events = loadgen_events(
            fabric=ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=2),
            epochs=2,
        )
        fleet = assert_fleet_matches_single(events, num_shards=8, epochs=2)
        loads = [fleet.shard(i).stats.paths_ingested for i in range(8)]
        assert sum(1 for load in loads if load == 0) >= 6
        assert sum(loads) > 0

    def test_single_host_fabric(self):
        """A fabric with one host produces no flows; everything stays empty."""
        events = loadgen_events(
            fabric=ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=1),
            epochs=3,
        )
        assert all(isinstance(e, EpochTick) for e in events)
        fleet = assert_fleet_matches_single(events, num_shards=4, epochs=3)
        assert fleet.report(2).num_paths_analyzed == 0

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_loadgen_stream_agreement_with_unsharded(self, num_shards):
        events = loadgen_events(epochs=2)
        assert_fleet_matches_single(events, num_shards, epochs=2)


class TestAdversarialOrderings:
    """The batched facade must fall back gracefully and stay bit-identical."""

    def scrambled_events(self):
        events = [e for e in loadgen_events(epochs=1) if not isinstance(e, EpochTick)]
        # duplicates, a reordering, and a retransmission before its path
        scrambled = list(events)
        scrambled[10], scrambled[40] = scrambled[40], scrambled[10]
        scrambled.insert(20, scrambled[5])
        scrambled.insert(0, RetransmissionEvidence(epoch=0, flow_id=999_999))
        scrambled.append(EpochTick(0))
        return scrambled

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_batched_equals_per_event_under_adversarial_order(self, num_shards):
        events = self.scrambled_events()
        batched = ShardedService(num_shards=num_shards)
        batched.ingest_batch(events)
        per_event = ShardedService(num_shards=num_shards)
        for event in events:
            per_event.ingest(event)
        assert report_signature(batched.report(0)) == report_signature(
            per_event.report(0)
        )

    def test_batched_service_equals_per_event_under_adversarial_order(self):
        events = self.scrambled_events()
        batched = Zero07Service()
        batched.ingest_batch(events)
        per_event = Zero07Service()
        for event in events:
            per_event.ingest(event)
        assert report_signature(batched.report(0)) == report_signature(
            per_event.report(0)
        )
        # the scrambled batch is a genuinely mixed run: replayed, and counted
        assert batched.stats.fallback_events > 0 == per_event.stats.fallback_events
        expected = dict(
            per_event.stats.as_dict(), fallback_events=batched.stats.fallback_events
        )
        assert batched.stats.as_dict() == expected
        assert batched.stats.duplicate_events > 0
        assert batched.stats.out_of_order_events > 0


class TestPendingBufferDrain:
    def test_pending_retransmissions_drain_on_epoch_tick(self):
        """Regression: facade buffers for orphan count updates must not leak.

        A RetransmissionEvidence whose path never arrives sits in the
        facade's pending buffer; the epoch's tick must drop it together with
        the routing and dedup state for that epoch.
        """
        fleet = ShardedService(num_shards=2)
        fleet.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=3, seq=0))
        fleet.ingest(PathEvidence(epoch=0, seq=1, path=make_path(1, L[:3])))
        assert fleet._pending[0] == {7: 3}
        fleet.ingest(EpochTick(0))
        assert fleet._pending == {}
        assert fleet._flow_shard == {}
        assert fleet._retrans_seqs == {}
        # the orphan update never invented evidence
        assert fleet.report(0).num_paths_analyzed == 1
        # late arrivals for the finalized epoch do not resurrect state
        fleet.ingest(PathEvidence(epoch=0, seq=2, path=make_path(7, L[1:4])))
        fleet.ingest(RetransmissionEvidence(epoch=0, flow_id=7, seq=3))
        assert fleet._pending == {} and fleet._flow_shard == {}

    def test_pending_buffers_drain_after_batched_ingest(self):
        events = loadgen_events(epochs=2)
        fleet = ShardedService(num_shards=4)
        fleet.ingest_batch(events, owned=True)
        assert fleet._pending == {}
        assert fleet._flow_shard == {}
        assert fleet._retrans_seqs == {}
        for shard in range(4):
            assert fleet.shard(shard).open_epochs == []


class TestFastPathEngagement:
    """The vectorized batch path must actually engage on in-order streams.

    A timing-free regression guard: if a precondition check silently breaks
    and every batch degrades to the per-event fallback, the 5x speedup claim
    dies without any test noticing — so assert the fallback is never taken
    for the workloads the fast path was built for.
    """

    def test_loadgen_stream_never_falls_back(self, monkeypatch):
        def boom(self, run, owned):
            raise AssertionError("vectorized fast path fell back unexpectedly")

        monkeypatch.setattr(Zero07Service, "_ingest_evidence_fallback", boom)
        events = loadgen_events(epochs=2)
        service = Zero07Service(retain_reports=2)
        service.ingest_batch(events, owned=True)
        assert service.stats.epochs_finalized == 2

        fleet = ShardedService(num_shards=4, retain_reports=2)
        fleet.ingest_batch(loadgen_events(epochs=2), owned=True)
        assert fleet.last_finalized_epoch == 1

    def test_retraced_flow_mid_run_stays_bit_identical(self):
        """Regression: a flow traced twice in one run with a count update in
        between must bump the record that was live *at update time* — the
        per-event semantics — not the final one."""
        events = [
            PathEvidence(epoch=0, seq=i, path=make_path(i, L[:3])) for i in range(6)
        ]
        events.append(RetransmissionEvidence(epoch=0, flow_id=2, retransmissions=5, seq=6))
        # flow 2 is traced AGAIN after its update (a re-trace mid-epoch)
        events.append(PathEvidence(epoch=0, seq=7, path=make_path(2, L[2:6])))
        events.append(PathEvidence(epoch=0, seq=8, path=make_path(9, L[:2])))
        batched = Zero07Service()
        batched.ingest_batch(events)
        per_event = Zero07Service()
        for event in events:
            per_event.ingest(event)
        assert report_signature(batched.report(0)) == report_signature(
            per_event.report(0)
        )
        assert [
            (seq, path.flow_id, path.retransmissions)
            for seq, path in batched.evidence_for_epoch(0)
        ] == [
            (seq, path.flow_id, path.retransmissions)
            for seq, path in per_event.evidence_for_epoch(0)
        ]
        assert evidence_document(batched.checkpoint()) == evidence_document(
            per_event.checkpoint()
        )

    def test_exotic_event_kinds_are_not_swallowed_by_the_fast_path(self):
        """Regression: a PathEvidence subclass mid-batch must be ingested with
        per-event semantics (isinstance dispatch), never silently dropped
        with its seq burned; unknown kinds must raise like ingest() does."""

        class TracedPathEvidence(PathEvidence):
            pass

        events = [
            PathEvidence(epoch=0, seq=i, path=make_path(i, L[:3])) for i in range(10)
        ]
        events[4] = TracedPathEvidence(epoch=0, seq=4, path=make_path(4, L[:3]))
        service = Zero07Service()
        service.ingest_batch(events)
        assert service.stats.paths_ingested == 10
        per_event = Zero07Service()
        for event in events:
            per_event.ingest(event)
        assert report_signature(service.report(0)) == report_signature(
            per_event.report(0)
        )
        fleet = ShardedService(num_shards=2)
        fleet.ingest_batch(list(events))
        assert report_signature(fleet.report(0)) == report_signature(
            per_event.report(0)
        )

        class NotEvidence:
            epoch = 0
            seq = 99

        with pytest.raises(TypeError):
            Zero07Service().ingest_batch(
                [PathEvidence(epoch=0, seq=i, path=make_path(i, L[:2])) for i in range(9)]
                + [NotEvidence()]
            )

    def test_empty_interning_batches_are_harmless(self):
        """Regression: fast_ids/hop_ids on empty input return nothing."""
        from repro.core.arrays import LinkIndex

        index = LinkIndex()
        for after_use in (False, True):
            assert index.fast_ids([]).tolist() == []
            assert index.hop_ids([], 0).tolist() == []
            assert len(index) == (2 if after_use else 0)
            index.fast_ids([L[0], L[1]])

    def test_adversarial_stream_does_fall_back(self):
        """...and genuinely disordered runs still take the safe path."""
        events = [
            PathEvidence(epoch=0, seq=seq, path=make_path(seq, L[:3]))
            for seq in (5, 3, 9, 1, 7, 2, 8, 0, 6, 4)
        ]
        service = Zero07Service()
        service.ingest_batch(events)
        assert service.stats.out_of_order_events > 0
        in_order = Zero07Service()
        in_order.ingest_batch(sorted(events, key=lambda e: e.seq))
        assert report_signature(service.report(0)) == report_signature(
            in_order.report(0)
        )


class TestEvidenceOwnership:
    """satellite: skip defensive copies only when ownership really transfers."""

    def test_owned_and_copied_ingestion_are_bit_identical(self):
        events = loadgen_events(epochs=2)
        copied = Zero07Service(retain_reports=2)
        copied.ingest_batch(events)  # defensive default: events stay pristine
        owned = Zero07Service(retain_reports=2)
        owned.ingest_batch(events, owned=True)
        for epoch in range(2):
            assert report_signature(copied.report(epoch)) == report_signature(
                owned.report(epoch)
            )

    def test_default_ingest_does_not_alias_caller_objects(self):
        """Copy-on-ingest: later service-side bumps stay inside the service."""
        path = make_path(1, L[:3], retransmissions=1)
        event = PathEvidence(epoch=0, seq=0, path=path)
        service = Zero07Service()
        service.ingest_batch([event, RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=5, seq=1)])
        assert path.retransmissions == 1  # caller's object untouched
        [contribution] = service.report(0).tally.contributions
        assert contribution.retransmissions == 6

    def test_owned_ingest_transfers_ownership(self):
        """``owned=True`` used to let the service bump the caller's objects;
        now it transfers nothing: the service never writes to a path object,
        ``owned`` or not, per event or in bulk — counts live in the tally."""
        for owned in (False, True):
            for bulk in (False, True):
                path = make_path(99, L[:3], retransmissions=1)
                events = [
                    PathEvidence(epoch=0, seq=i, path=make_path(i, L[:3]))
                    for i in range(1, 10)
                ]
                events.insert(
                    0, RetransmissionEvidence(epoch=0, flow_id=99, retransmissions=2)
                )  # buffered until the path arrives
                events.insert(1, PathEvidence(epoch=0, seq=0, path=path))
                events.append(
                    RetransmissionEvidence(epoch=0, flow_id=99, retransmissions=5, seq=10)
                )
                before = dataclasses.replace(path, links=list(path.links))
                service = Zero07Service()
                if bulk:
                    service.ingest_batch(events[:1])
                    service.ingest_batch(events[1:], owned=owned)
                else:
                    for event in events:
                        service.ingest(event)
                service.report(0)
                service.checkpoint()
                assert path == before  # the caller's object, untouched
                counts = {
                    c.flow_id: c.retransmissions
                    for c in service.report(0).tally.contributions
                }
                assert counts[99] == 1 + 2 + 5

    def test_replaying_one_stream_into_two_services_cannot_alias(self):
        """The copying default protects replay sources from cross-service leaks."""
        events = [e for e in loadgen_events(epochs=1) if not isinstance(e, EpochTick)]
        first = Zero07Service()
        first.ingest_batch(events)
        # mutate nothing in between: second service must see identical stream
        second = Zero07Service()
        second.ingest_batch(events)
        assert report_signature(first.report(0)) == report_signature(second.report(0))

    def test_recorder_tap_still_sees_batched_events(self):
        """A wrapped ingest() (EvidenceRecorder) must not be bypassed by the
        batched fast path."""
        events = loadgen_events(epochs=1)
        service = Zero07Service()
        recorder = EvidenceRecorder(service)
        service.ingest_batch(events, owned=True)
        assert len(recorder.events) == len(events)
        replayed = Zero07Service()
        recorder.replay(replayed)
        assert report_signature(replayed.report(0)) == report_signature(
            service.report(0)
        )

    def test_detached_recorder_re_enables_the_fast_path(self, monkeypatch):
        """Regression: detach() must remove the instance-level ingest wrapper
        entirely — leaving one behind silently disables the vectorized batch
        path for the rest of the service's life."""
        service = Zero07Service(retain_reports=2)
        recorder = EvidenceRecorder(service)
        service.ingest_batch(loadgen_events(epochs=1))
        recorder.detach()
        recorder.detach()  # idempotent
        assert "ingest" not in service.__dict__

        def boom(self, run, owned):
            raise AssertionError("fast path disabled after recorder detach")

        monkeypatch.setattr(Zero07Service, "_ingest_evidence_fallback", boom)
        service.ingest_batch(
            loadgen_events(epochs=2)[len(loadgen_events(epochs=1)) :], owned=True
        )
        assert service.stats.epochs_finalized == 2

    def test_stacked_recorders_detach_innermost_first(self):
        """Detaching the outer recorder must re-install the inner tap, and
        detaching the inner one must fully restore the class method."""
        service = Zero07Service()
        inner = EvidenceRecorder(service)
        outer = EvidenceRecorder(service)
        event = PathEvidence(epoch=0, seq=0, path=make_path(1, L[:3]))
        service.ingest(event)
        assert len(outer.events) == len(inner.events) == 1
        outer.detach()
        service.ingest(PathEvidence(epoch=0, seq=1, path=make_path(2, L[:3])))
        assert len(inner.events) == 2 and len(outer.events) == 1
        inner.detach()
        assert "ingest" not in service.__dict__
