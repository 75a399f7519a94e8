"""Tests for the event-driven streaming service core (``repro.api``).

The acceptance bar of the redesign:

* streamed ingestion produces reports **bit-identical** to batch analysis on
  static and dynamic scenarios, on both engines;
* ``report()`` works mid-epoch (before the tick) and equals batch analysis of
  the evidence prefix;
* checkpoint/restore round-trips mid-scenario bit-identically;
* :class:`ShardedService` with 1, 2 and 4 shards agrees with the unsharded
  service;
* report sinks fire once per finalized epoch, and per-epoch stats reset at
  rollover.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.api import (
    Checkpoint,
    DetectionLogSink,
    EpochTick,
    EvidenceRecorder,
    PathEvidence,
    ReportUnavailableError,
    RetransmissionEvidence,
    ShardedService,
    Zero07Service,
    evidence_from_dict,
    evidence_to_dict,
)
from repro.api.checkpoint import CheckpointColumns, epoch_columns
from repro.api.service import iter_evidence_runs
from repro.core.aggregate import MultiEpochAggregator
from repro.core.analysis import AnalysisAgent
from repro.core.blame import BlameConfig
from repro.core.votes import PathTooLongError
from repro.discovery.agent import DiscoveredPath
from repro.experiments.scenario import ScenarioConfig, build_system, run_scenario
from repro.metrics.evaluation import StreamingDetectionScorer
from repro.netsim.script import ScenarioScript
from repro.routing.fivetuple import FiveTuple
from repro.testing import evidence_document, health_records, report_signature
from repro.topology.elements import DirectedLink, LinkLevel

FAST = dict(npod=2, n0=4, n1=2, n2=2, hosts_per_tor=2, connections_per_host=25)

#: R7CK containers written by an earlier commit (see the README there).
CHECKPOINT_FIXTURES = pathlib.Path(__file__).parent / "data" / "checkpoints"


def repacked_full(edit=None, columns=None):
    """``full.ckpt`` as container bytes again, after ``edit`` changed a copy of
    its payload and ``columns`` (if given) replaced its arrays."""
    good = Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt")
    payload = json.loads(json.dumps(good.payload))
    if edit is not None:
        edit(payload)
    if columns is not None:
        columns = CheckpointColumns(columns, good.columns.names, good.columns.links)
    return Checkpoint(payload, columns or good.columns).to_bytes()


def static_config(engine="arrays") -> ScenarioConfig:
    return ScenarioConfig(
        **FAST, num_bad_links=2, drop_rate_range=(1e-2, 1e-2), epochs=3, seed=11,
        engine=engine,
    )


def dynamic_config(engine="arrays") -> ScenarioConfig:
    script = (
        ScenarioScript()
        .flap(start=1, duration=2, drop_rate=2e-2, level=LinkLevel.LEVEL1)
        .burst(start=3, duration=1, level=LinkLevel.LEVEL2, num_links=2, drop_rate=2e-2)
    )
    return ScenarioConfig(
        **FAST, failure_kind="none", epochs=5, seed=13, script=script, engine=engine,
    )


def recorded_run(config: ScenarioConfig):
    """Run a scenario while capturing its full evidence stream.

    Returns ``(reports, events)`` — the finalized per-epoch reports and a
    faithful snapshot of every evidence event the system streamed into its
    service.
    """
    system, _ = build_system(config)
    recorder = EvidenceRecorder(system.service)
    runs = system.run(config.epochs)
    return [report for _, report in runs], recorder.events


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


def evidence_stream(epoch, paths, tick=False):
    """One epoch's paths as evidence in list order, its tick last if asked."""
    events = [PathEvidence(epoch=epoch, seq=i, path=path) for i, path in enumerate(paths)]
    return events + [EpochTick(epoch=epoch)] if tick else events


L = [DirectedLink(f"n{i}", f"n{i + 1}") for i in range(6)]

#: a walk long enough for a path one hop past the longest that votes.
LONG = [DirectedLink(f"w{i}", f"w{i + 1}") for i in range(9)]


# ----------------------------------------------------------------------
# streamed == batch, bit for bit
# ----------------------------------------------------------------------
class TestStreamedEqualsBatch:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("make_config", [static_config, dynamic_config])
    def test_system_reports_match_independent_batch_analysis(
        self, engine, make_config
    ):
        """The streamed pipeline's reports equal a fresh batch recomputation."""
        config = make_config(engine)
        reports, events = recorded_run(config)
        # replay the captured evidence into a fresh service
        service = Zero07Service(blame_config=config.blame, engine=engine)
        service.ingest_batch(events)
        for epoch, report in enumerate(reports):
            assert report_signature(service.report(epoch)) == report_signature(report)
        # and recompute each epoch with a brand-new batch agent over the
        # paths the stream carried — the legacy batch loop, reconstructed
        agent = AnalysisAgent(blame_config=config.blame, engine=engine)
        paths_by_epoch = {}
        for event in events:
            if isinstance(event, PathEvidence):
                paths_by_epoch.setdefault(event.epoch, []).append(event.path)
        for epoch, report in enumerate(reports):
            batch = agent.analyze_epoch(epoch, paths_by_epoch.get(epoch, []))
            assert report_signature(batch) == report_signature(report)

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_chunked_ingestion_matches(self, engine):
        config = static_config(engine)
        reports, events = recorded_run(config)
        service = Zero07Service(blame_config=config.blame, engine=engine)
        for start in range(0, len(events), 7):
            service.ingest_batch(events[start : start + 7])
        for epoch, report in enumerate(reports):
            assert report_signature(service.report(epoch)) == report_signature(report)


# ----------------------------------------------------------------------
# mid-epoch queries
# ----------------------------------------------------------------------
class TestMidEpochReport:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_report_before_tick_equals_batch_of_prefix(self, engine):
        config = static_config(engine)
        _, events = recorded_run(config)
        epoch0 = [e for e in events if isinstance(e, PathEvidence) and e.epoch == 0]
        half = len(epoch0) // 2
        assert half >= 2

        service = Zero07Service(blame_config=config.blame, engine=engine)
        service.ingest_batch(epoch0[:half])
        mid = service.report(0)

        agent = AnalysisAgent(blame_config=config.blame, engine=engine)
        expected = agent.analyze_epoch(0, [e.path for e in epoch0[:half]])
        assert report_signature(mid) == report_signature(expected)

        # the rest of the evidence still folds in after the mid-epoch query
        service.ingest_batch(epoch0[half:])
        final = service.advance_epoch(0)
        expected_full = agent.analyze_epoch(0, [e.path for e in epoch0])
        assert report_signature(final) == report_signature(expected_full)

    def test_mid_epoch_report_is_immutable_snapshot(self):
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])]))
        first = service.report(0)
        before = report_signature(first)
        service.ingest(PathEvidence(epoch=0, seq=1, path=make_path(2, L[2:5])))
        assert report_signature(first) == before
        assert service.report(0).num_paths_analyzed == 2

    def test_a_stable_stream_resumes_without_rescanning_old_rows(self, monkeypatch):
        """While the detections repeat, each cold report and the tick resume
        Algorithm 1 from the previous report: every scan for a blamed link's
        rows covers only the hops past that report's watermark, and the
        verdict is a fresh run's, per-step votes included."""
        import repro.core.arrays as arrays

        bad, worse = DirectedLink("b", "B"), DirectedLink("a", "A")
        spread = [DirectedLink(f"x{k}", f"y{k}") for k in range(8)]
        paths = []
        for flow in range(300):  # per 10 flows: 5 on ``worse``, 3 on ``bad``
            k, kind = flow % 8, flow % 10
            if kind < 5:
                paths.append(make_path(flow, [worse, spread[k]]))
            else:
                paths.append(make_path(flow, [bad, spread[7 - k]] if kind < 8 else [spread[k]]))
        events = evidence_stream(0, paths)
        config = BlameConfig(threshold_fraction=0.1)
        service = Zero07Service(blame_config=config)
        service.ingest_batch(events[:100])
        previous = service.report(0)
        assert previous.detected_links == [worse, bad]
        scans = []
        holding = arrays._rows_holding
        monkeypatch.setattr(
            arrays,
            "_rows_holding",
            lambda row_of, hops, *rest: scans.append((int(row_of[0]), len(hops)))
            or holding(row_of, hops, *rest),
        )
        for stop in (200, 300):
            service.ingest_batch(events[stop - 100 : stop])
            scans.clear()
            report = service.report(0) if stop < 300 else service.advance_epoch(0)
            indptr, cols, _ = report.tally.path_matrix()
            watermark = previous.num_paths_analyzed
            assert scans == [(watermark, len(cols) - indptr[watermark])] * 2
            fresh = AnalysisAgent(blame_config=config).analyze_epoch(0, paths[:stop])
            assert report_signature(report) == report_signature(fresh)
            assert report.blame.arrays.steps.tobytes() == fresh.blame.arrays.steps.tobytes()
            assert (
                report.blame.arrays.row_steps.tobytes()
                == fresh.blame.arrays.row_steps.tobytes()
            )
            previous = report

    def test_empty_epoch_report(self):
        service = Zero07Service()
        report = service.report(0)
        assert report.num_paths_analyzed == 0
        assert report.detected_links == []


# ----------------------------------------------------------------------
# evidence semantics
# ----------------------------------------------------------------------
class TestEvidenceSemantics:
    def test_retransmission_evidence_updates_counts(self):
        service = Zero07Service()
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(7, L[:3])))
        service.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=2))
        report = service.advance_epoch(0)
        [contribution] = report.tally.contributions
        assert contribution.retransmissions == 3
        # >1 retransmissions makes the flow a failure drop, not noise
        assert 7 in report.noise.failure_flows

    def test_retransmission_before_path_is_buffered(self):
        service = Zero07Service()
        service.ingest(RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=2))
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(7, L[:3])))
        report = service.advance_epoch(0)
        [contribution] = report.tally.contributions
        assert contribution.retransmissions == 3

    def test_duplicate_delivery_is_idempotent(self):
        service = Zero07Service()
        event = PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2]))
        service.ingest(event)
        service.ingest(event)
        assert service.stats.duplicate_events == 1
        assert service.report(0).num_paths_analyzed == 1

    def test_duplicate_retransmission_delivery_is_idempotent(self):
        """At-least-once transports must not double-count retrans updates."""
        service = Zero07Service()
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])))
        update = RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=1, seq=1)
        service.ingest(update)
        service.ingest(update)  # redelivery
        assert service.stats.duplicate_events == 1
        [contribution] = service.report(0).tally.contributions
        assert contribution.retransmissions == 2

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("entry", ["ingest_batch", "ingest"])
    def test_empty_path_is_rejected_before_any_state_changes(self, engine, entry):
        """A path with no known links raises with the epoch untouched: no seq
        marked seen, no record without a tally row (which would misalign the
        rows ``bump_rows`` credits and checkpoint evidence the tally never
        saw).  The clean remainder then ingests normally."""
        service = Zero07Service(engine=engine)
        service.ingest_batch(
            [PathEvidence(0, seq, make_path(seq, L[:2])) for seq in range(3)]
        )
        run = [
            PathEvidence(0, seq, make_path(seq, [] if seq == 8 else L[1:4]))
            for seq in range(3, 15)
        ]
        before = service.checkpoint().to_bytes()
        with pytest.raises(ValueError):
            if entry == "ingest_batch":
                service.ingest_batch(run)
            else:
                service.ingest(run[5])
        assert service.checkpoint().to_bytes() == before
        clean = [event for event in run if event.path.links]
        clean.append(RetransmissionEvidence(0, flow_id=14, retransmissions=2, seq=15))
        service.ingest_batch(clean)
        report = service.advance_epoch(0)
        assert report.num_paths_analyzed == 14
        assert report.tally.contributions[-1].retransmissions == 3
        replay = Zero07Service(engine=engine)
        replay.ingest_batch(
            [PathEvidence(0, seq, make_path(seq, L[:2])) for seq in range(3)] + clean
        )
        assert report_signature(report) == report_signature(replay.advance_epoch(0))

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("entry", ["ingest_batch", "ingest"])
    def test_a_path_longer_than_eight_hops_is_rejected_before_any_state_changes(
        self, engine, entry
    ):
        service = Zero07Service(engine=engine)
        service.ingest_batch(
            [PathEvidence(0, seq, make_path(seq, LONG[:8])) for seq in range(10)]
        )
        run = [
            PathEvidence(0, seq, make_path(seq, LONG[: 9 if seq == 14 else 3]))
            for seq in range(10, 22)
        ]
        before = service.checkpoint().to_bytes()
        with pytest.raises(PathTooLongError, match="9 links") as raised:
            if entry == "ingest_batch":
                service.ingest_batch(run)
            else:
                service.ingest(run[4])
        assert raised.value.hops == 9
        assert service.checkpoint().to_bytes() == before

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("entry", ["ingest_batch", "ingest"])
    def test_a_count_below_zero_is_rejected_before_any_state_changes(
        self, engine, entry
    ):
        """A retransmission count below 0, on a path or on an update that
        arrives before its path, is refused where evidence enters: every
        state ingest accepts round-trips through a container."""
        service = Zero07Service(engine=engine)
        service.ingest_batch(
            [PathEvidence(0, seq, make_path(seq, L[:2])) for seq in range(3)]
        )
        before = service.checkpoint().to_bytes()
        for bad in (
            PathEvidence(0, 3, make_path(3, L[:2], retransmissions=-1)),
            RetransmissionEvidence(0, flow_id=9, retransmissions=-2, seq=4),
        ):
            with pytest.raises(ValueError, match="count must be >= 0"):
                if entry == "ingest_batch":
                    service.ingest_batch(
                        [PathEvidence(0, 5, make_path(5, L[1:3])), bad]
                    )
                else:
                    service.ingest(bad)
            assert service.checkpoint().to_bytes() == before
        service.ingest(RetransmissionEvidence(0, flow_id=9, retransmissions=0, seq=4))
        restored = Checkpoint.from_bytes(service.checkpoint().to_bytes())
        assert restored == service.checkpoint()

    def test_retransmission_seq_dedup_survives_checkpoint(self):
        service = Zero07Service()
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])))
        update = RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=1, seq=1)
        service.ingest(update)
        restored = Zero07Service.restore(
            Checkpoint.from_bytes(service.checkpoint().to_bytes())
        )
        restored.ingest(update)  # redelivered across the restart
        [contribution] = restored.report(0).tally.contributions
        assert contribution.retransmissions == 2

    def test_tick_emits_reports_for_gap_epochs(self):
        """A tick finalizes evidence-less epochs in the gap too, in order."""
        sink = DetectionLogSink()
        service = Zero07Service(sinks=(sink,))
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])))
        service.ingest(PathEvidence(epoch=2, seq=0, path=make_path(2, L[1:3])))
        service.ingest(EpochTick(2))
        assert [epoch for epoch, _ in sink.rows] == [0, 1, 2]
        assert service.report(1).num_paths_analyzed == 0  # cached empty report

    def test_out_of_order_delivery_is_resequenced(self):
        paths = [make_path(i, L[i : i + 2]) for i in range(4)]
        in_order = Zero07Service()
        in_order.ingest_batch(evidence_stream(0, paths))
        shuffled = Zero07Service()
        events = list(evidence_stream(0, paths))
        shuffled.ingest_batch([events[2], events[0], events[3], events[1]])
        assert shuffled.stats.out_of_order_events > 0
        assert report_signature(shuffled.report(0)) == report_signature(
            in_order.report(0)
        )

    def test_late_evidence_is_dropped(self):
        service = Zero07Service()
        service.ingest(EpochTick(0))
        service.ingest(PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])))
        assert service.stats.late_events == 1
        assert service.report(0).num_paths_analyzed == 0

    def test_tick_finalizes_and_releases_buffers(self):
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])], tick=True))
        assert service.open_epochs == []
        assert service.last_finalized_epoch == 0
        assert service.stats.epochs_finalized == 1

    def test_evidence_json_round_trip(self):
        events = [
            PathEvidence(epoch=2, seq=5, path=make_path(9, L[:4], retransmissions=3)),
            RetransmissionEvidence(epoch=2, flow_id=9, retransmissions=4),
            EpochTick(epoch=2),
        ]
        for event in events:
            assert evidence_from_dict(evidence_to_dict(event)) == event


# ----------------------------------------------------------------------
# out-of-order and redelivered evidence
# ----------------------------------------------------------------------
class TestOutOfOrderDelivery:
    """Late and redelivered evidence: one binding rule, and a counted exit."""

    @staticmethod
    def retrace_then_update():
        """A flow re-traced below the watermark, then a count update for it."""
        arrivals = [
            PathEvidence(epoch=0, seq=5, path=make_path(1, [L[0], L[1]])),
            PathEvidence(epoch=0, seq=6, path=make_path(2, [L[2], L[3]])),
            PathEvidence(epoch=0, seq=3, path=make_path(1, [L[0], L[4]])),
        ]
        update = RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=3, seq=7)
        return arrivals, update

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_a_report_between_arrivals_does_not_move_a_later_count(self, engine):
        """A count update binds to the flow's highest-seq record, whatever
        order its records arrived in: flow 1 is traced at seq 5, then at seq
        3 (late), then updated.  It used to bind to the last-arrived seq-3
        record, where an in-order replay binds it to seq 5.  The binding is
        the same with or without a read in between, after a restore taken
        before or after the update, and in the in-order replay."""
        arrivals, update = self.retrace_then_update()

        def run(query: bool) -> Zero07Service:
            service = Zero07Service(engine=engine)
            for event in arrivals:
                service.ingest(event)
            if query:
                service.report(0)
            service.ingest(update)
            if not query:  # the same number of reads, none in between
                service.report(0)
            return service

        def records(service):
            return [
                (seq, path.flow_id, [str(link) for link in path.links], path.retransmissions)
                for seq, path in service.evidence_for_epoch(0)
            ]

        queried, unqueried = run(query=True), run(query=False)
        assert queried.checkpoint().to_bytes() == unqueried.checkpoint().to_bytes()
        assert records(queried) == records(unqueried)
        assert records(queried)[:2] == [
            (3, 1, [str(L[0]), str(L[4])], 1),
            (5, 1, [str(L[0]), str(L[1])], 4),  # the highest seq takes the update
        ]
        in_order = Zero07Service(engine=engine)
        for event in sorted(arrivals, key=lambda event: event.seq) + [update]:
            in_order.ingest(event)
        before_update = Zero07Service(engine=engine)
        for event in arrivals:
            before_update.ingest(event)
        resumed = Zero07Service.restore(before_update.checkpoint())
        resumed.ingest(update)
        restored = Zero07Service.restore(queried.checkpoint())
        expected = report_signature(queried.report(0))
        for twin in (in_order, resumed, restored):
            assert records(twin) == records(queried)
            assert report_signature(twin.report(0)) == expected

    @staticmethod
    def chunked_epoch(chunks: int = 4, size: int = 16):
        """One epoch as ``chunks`` in-order chunks of ``size`` events; every
        fourth event is a count update for the path two places before it."""
        events = []
        for seq in range(chunks * size):
            if seq % 4 == 3:
                events.append(
                    RetransmissionEvidence(epoch=0, flow_id=seq - 2, seq=seq)
                )
            else:
                events.append(
                    PathEvidence(
                        epoch=0,
                        seq=seq,
                        path=make_path(seq, [L[seq % 3], L[3 + seq % 3]]),
                    )
                )
        return [events[i * size : (i + 1) * size] for i in range(chunks)]

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_swapped_and_redelivered_chunks_stay_on_the_vector_path(self, engine):
        first, second, third, fourth = self.chunked_epoch()

        def in_order(*chunks):
            reference = Zero07Service(engine=engine)
            reference.ingest_batch([event for chunk in chunks for event in chunk])
            return reference

        def records(service):
            return [
                (seq, path.flow_id, path.retransmissions)
                for seq, path in service.evidence_for_epoch(0)
            ]

        service = Zero07Service(engine=engine)
        for chunk in (first, third, second, second):  # a swap, a redelivery
            service.ingest_batch(chunk)
        prefix = in_order(first, second, third)
        assert report_signature(service.report(0)) == report_signature(
            prefix.report(0)
        )  # a query in between
        for chunk in (fourth, first):
            service.ingest_batch(chunk)
        whole = in_order(first, second, third, fourth)
        assert service.stats.duplicate_events == len(second) + len(first)
        assert service.stats.out_of_order_events == sum(
            1 for event in second if isinstance(event, PathEvidence)
        )
        assert records(service) == records(whole)
        assert report_signature(service.report(0)) == report_signature(
            whole.report(0)
        )

    def test_a_late_run_around_the_watermark_counts_only_the_paths_below_it(self):
        """``out_of_order_events`` is per path, against the running highest
        path seq — a late run that straddles it counts its lower part only,
        and the count updates in it never count."""
        first, second, third, _ = self.chunked_epoch()
        ahead = second[9]  # a path from the middle of the second chunk
        rest = second[:9] + second[10:] + third
        chunked, per_event = Zero07Service(), Zero07Service()
        chunked.ingest_batch(first)
        chunked.ingest(ahead)
        chunked.ingest_batch(rest)
        for event in first + [ahead] + rest:
            per_event.ingest(event)
        below = sum(1 for e in second[:9] if isinstance(e, PathEvidence))
        assert chunked.stats.out_of_order_events == below
        assert per_event.stats.out_of_order_events == below
        assert report_signature(chunked.report(0)) == report_signature(
            per_event.report(0)
        )

    def test_a_half_duplicate_chunk_drops_its_seen_half_and_folds_the_rest(self):
        first, second, *_ = self.chunked_epoch()
        service, per_event = Zero07Service(), Zero07Service()
        service.ingest_batch(first)
        straddling = first[8:] + second[:8]
        service.ingest_batch(straddling)
        for event in first + straddling:
            per_event.ingest(event)
            per_event.stats  # admits the one-event run per event
        assert service.stats.duplicate_events == per_event.stats.duplicate_events == 8
        assert report_signature(service.report(0)) == report_signature(
            per_event.report(0)
        )
        assert service.checkpoint() == per_event.checkpoint()

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_a_run_led_by_a_seq_less_update_equals_per_event_ingest(self, engine):
        """Regression: a seq-less update (encoded -1) leading a run passed the
        late-run proof — -1 entered the seen seqs and the checkpoint's ``rs``
        column, and a redelivery was then dropped whole although a seq-less
        update applies on every delivery.  Fresh, late and redelivered."""
        first, second, third, _ = self.chunked_epoch()

        def led(chunk, flow_id):  # a flow the run itself does not trace
            return [RetransmissionEvidence(epoch=0, flow_id=flow_id)] + chunk

        ahead, behind = second[0].path.flow_id, first[0].path.flow_id
        late = led(second, behind)
        deliveries = [led(first, ahead), third, late, late]
        chunked, per_event = Zero07Service(engine=engine), Zero07Service(engine=engine)
        for run in deliveries:
            chunked.ingest_batch(run)
            for event in run:
                per_event.ingest(event)
            assert evidence_document(chunked.checkpoint()) == evidence_document(
                per_event.checkpoint()
            )
        # the redelivery drops its seen events and applies the update again
        assert chunked.stats.duplicate_events == len(second)
        records = dict(chunked.evidence_for_epoch(0))
        assert records[second[0].seq].retransmissions == 1 + 1  # was buffered
        assert records[first[0].seq].retransmissions == 1 + 2  # both deliveries

# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
class TestCheckpoint:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_mid_scenario_checkpoint_restore_is_bit_identical(self, engine):
        config = dynamic_config(engine)
        _, events = recorded_run(config)
        half = len(events) // 2

        interrupted = Zero07Service(blame_config=config.blame, engine=engine)
        interrupted.ingest_batch(events[:half])
        checkpoint = Checkpoint.from_bytes(interrupted.checkpoint().to_bytes())
        resumed = Zero07Service.restore(checkpoint)
        resumed.ingest_batch(events[half:])

        uninterrupted = Zero07Service(blame_config=config.blame, engine=engine)
        uninterrupted.ingest_batch(events)

        finalized_before = interrupted.last_finalized_epoch
        start = 0 if finalized_before is None else finalized_before + 1
        assert start < config.epochs  # the checkpoint really was mid-scenario
        for epoch in range(start, config.epochs):
            assert report_signature(resumed.report(epoch)) == report_signature(
                uninterrupted.report(epoch)
            )
        assert resumed.stats.paths_ingested == uninterrupted.stats.paths_ingested

    def test_checkpoint_round_trips_through_disk(self, tmp_path):
        service = Zero07Service()
        service.ingest_batch(
            evidence_stream(0, [make_path(1, L[:3]), make_path(2, L[1:4])])
        )
        path = tmp_path / "service.ckpt"
        service.checkpoint().save(path)
        restored = Zero07Service.restore(Checkpoint.load(path))
        assert report_signature(restored.report(0)) == report_signature(
            service.report(0)
        )

    def test_report_default_works_right_after_a_boundary_restore(self):
        """report() must answer (not raise) when restored at an epoch boundary."""
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])], tick=True))
        restored = Zero07Service.restore(
            Checkpoint.from_bytes(service.checkpoint().to_bytes())
        )
        report = restored.report()  # the closed report was not serialized
        assert report.epoch == 1 and report.num_paths_analyzed == 0
        fleet = ShardedService(num_shards=2)
        fleet.ingest_batch(evidence_stream(0, [make_path(1, L[:3])], tick=True))
        restored_fleet = ShardedService.restore(
            Checkpoint.from_bytes(fleet.checkpoint().to_bytes())
        )
        assert restored_fleet.report().epoch == 1

    def test_checkpoint_rejects_wrong_kind(self):
        service = Zero07Service()
        checkpoint = service.checkpoint()
        with pytest.raises(ValueError):
            ShardedService.restore(checkpoint)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("stats", {"as_dict": 2}),  # not a counter: it would shadow a method
            ("stats", {"paths_ingested": None}),
            ("stats", {"ticks": 1.0}),
            ("stats", {"ticks": True}),
            ("stats", {"seqs": 3}),
            ("stats", {"fallback_events": 3}),  # retired: no counter any more
            ("stats", [1, 2]),
            ("last_finalized", [1]),
            ("last_finalized", "0"),
            ("max_epoch_seen", 2.5),
        ],
    )
    def test_malformed_stats_and_epoch_markers_are_refused(self, key, value):
        """A checkpoint's stats hold only integer service counters and its
        epoch markers are integers: anything else is a ``ValueError`` at load
        or restore, never a service that breaks later."""

        def edit(payload):
            payload[key] = (
                {**payload["stats"], **value}
                if key == "stats" and isinstance(value, dict)
                else value
            )

        with pytest.raises(ValueError):
            Zero07Service.restore(Checkpoint.from_bytes(repacked_full(edit)))

    @pytest.mark.parametrize(
        "edit, match",
        [
            # the same epoch twice: a restore kept the last entry only
            (lambda p: p["epochs"][1].update(epoch=1), "distinct open epoch"),
            # at or below last_finalized: no report could ever be made of it
            (lambda p: p["epochs"][0].update(epoch=-5), "distinct open epoch"),
            (lambda p: p["epochs"][0].update(epoch=0), "distinct open epoch"),
            (lambda p: p["epochs"][0].update(epoch=1.5), "distinct open epoch"),
            # past the last epoch seen (2): the service's clock runs behind
            (lambda p: p.update(max_epoch_seen=1), "distinct open epoch"),
            (lambda p: p.update(max_epoch_seen=None), "distinct open epoch"),
            (lambda p: p["epochs"][0].update(pending_retransmissions=[]), "pending"),
            (
                lambda p: p["epochs"][0].update(pending_retransmissions={"7": -1}),
                "pending",
            ),
            # epoch 2 named epoch 1's columns: it restored with their records
            (
                lambda p: p["epochs"][1].update(records=p["epochs"][0]["records"]),
                "another epoch's",
            ),
            (lambda p: p.update(blame={}), "blame"),
            (lambda p: p.update(retain_reports=2.5), "retain_reports"),  # int(2.5)
            # bool("false") is True
            (lambda p: p.update(attribute_noise_flows="false"), "attribute_noise"),
            (lambda p: p.update(version=1), "version"),
        ],
        ids=[
            "epoch-twice", "epoch-finalized", "epoch-at-last-finalized",
            "epoch-fraction", "epoch-past-max-seen", "epoch-without-max-seen",
            "pending-list", "pending-negative", "records-shared", "blame-empty",
            "retain-fraction", "noise-string", "version-1",
        ],
    )
    def test_malformed_payloads_are_refused_before_restore(self, edit, match):
        """Payloads from outside are checked where they enter — per epoch
        entry and pending count, not per record — so no malformed epoch,
        pending map or setting reaches a restored service."""
        with pytest.raises(ValueError, match=match):
            Zero07Service.restore(Checkpoint.from_bytes(repacked_full(edit)))

    def test_a_protocol_past_255_is_refused(self):
        """A record's five-tuple is checked where the container enters, as a
        path object's constructor would: no restore lists a ``FiveTuple``
        that could not exist."""
        good = Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt")
        arrays = dict(good.columns.arrays)
        arrays["e0_pr"] = arrays["e0_pr"].copy()
        arrays["e0_pr"][0] = 300
        with pytest.raises(ValueError, match="'pr' leaves"):
            Checkpoint.from_bytes(repacked_full(columns=arrays))

    def test_a_checkpoint_without_a_counter_restores_it_as_zero(self):
        """A missing counter restores at its default, the others as saved."""
        full = Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt")
        saved = dict(full.payload["stats"])
        assert saved["out_of_order_events"] > 0

        def edit(payload):
            del payload["stats"]["out_of_order_events"]

        restored = Zero07Service.restore(Checkpoint.from_bytes(repacked_full(edit)))
        assert restored.stats.out_of_order_events == 0
        assert restored.stats.as_dict() == {**saved, "out_of_order_events": 0}
        assert restored.checkpoint().payload["stats"] == restored.stats.as_dict()

    def test_per_shard_sharded_checkpoints_are_refused(self):
        """A sharded payload with a ``shards`` list — one service payload per
        shard, the format before the coordinator service — is refused by
        loads, restore and delta merges, naming the change, whichever side
        of a merge it is on."""
        fleet = ShardedService(num_shards=2)
        fleet.ingest_batch(evidence_stream(0, [make_path(1, L[:3])]))
        base = fleet.checkpoint()
        assert base.payload["num_shards"] == 2 and "shards" not in base.payload
        fleet.ingest(PathEvidence(epoch=0, seq=1, path=make_path(2, L[1:4])))
        delta = fleet.checkpoint(base=base)

        def per_shard(name):
            """A fixture container's payload re-shaped as a per-shard sharded
            one: a service payload per shard, no fleet-wide records."""
            payload = Checkpoint.load(CHECKPOINT_FIXTURES / f"{name}.ckpt").payload
            return dict(payload, kind="sharded", shards=[payload] * 2, epochs=[])

        match = "retired per-shard format"
        with pytest.raises(ValueError, match=match):
            ShardedService.restore(Checkpoint(per_shard("base"), base.columns))
        with pytest.raises(ValueError, match=match):
            Checkpoint.from_bytes(
                Checkpoint(per_shard("base"), base.columns).to_bytes()
            )
        with pytest.raises(ValueError, match=match):
            Checkpoint(per_shard("base"), base.columns).apply_delta(delta)
        with pytest.raises(ValueError, match=match):
            base.apply_delta(Checkpoint(per_shard("delta"), delta.columns))
        ShardedService.restore(base.apply_delta(delta))  # today's shape merges

    def test_sharded_checkpoint_round_trip(self):
        config = static_config()
        _, events = recorded_run(config)
        half = len(events) // 2
        fleet = ShardedService(num_shards=2, blame_config=config.blame)
        fleet.ingest_batch(events[:half])
        restored = ShardedService.restore(
            Checkpoint.from_bytes(fleet.checkpoint().to_bytes())
        )
        restored.ingest_batch(events[half:])
        reference = ShardedService(num_shards=2, blame_config=config.blame)
        reference.ingest_batch(events)
        finalized = fleet.last_finalized_epoch
        start = 0 if finalized is None else finalized + 1
        for epoch in range(start, config.epochs):
            assert report_signature(restored.report(epoch)) == report_signature(
                reference.report(epoch)
            )


# ----------------------------------------------------------------------
# binary container, delta checkpoints, atomic save
# ----------------------------------------------------------------------
class TestBinaryCheckpoint:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_binary_round_trip_is_bit_identical(self, engine):
        config = static_config(engine)
        _, events = recorded_run(config)
        service = Zero07Service(blame_config=config.blame, engine=engine)
        service.ingest_batch(events[: len(events) // 2])
        restored = Zero07Service.restore(
            Checkpoint.from_bytes(service.checkpoint().to_bytes())
        )
        for epoch in service.open_epochs:
            assert report_signature(restored.report(epoch)) == report_signature(
                service.report(epoch)
            )

    def test_sharded_binary_round_trip(self):
        config = static_config()
        _, events = recorded_run(config)
        fleet = ShardedService(num_shards=2, blame_config=config.blame)
        fleet.ingest_batch(events[: len(events) // 2])
        restored = ShardedService.restore(
            Checkpoint.from_bytes(fleet.checkpoint().to_bytes())
        )
        epoch = max(e for i in range(2) for e in fleet.shard(i).open_epochs)
        assert report_signature(restored.report(epoch)) == report_signature(
            fleet.report(epoch)
        )

    def test_binary_survives_a_disk_round_trip(self, tmp_path):
        service = Zero07Service()
        service.ingest_batch(
            evidence_stream(0, [make_path(1, L[:3]), make_path(2, L[1:4])])
        )
        path = tmp_path / "service.ckpt"
        service.checkpoint().save(path)
        assert path.read_bytes()[:4] == b"R7CK"
        restored = Zero07Service.restore(Checkpoint.load(path))
        assert report_signature(restored.report(0)) == report_signature(
            service.report(0)
        )

    def test_save_survives_a_torn_write(self, tmp_path, monkeypatch):
        """A crash mid-save must leave the previous checkpoint intact."""
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])]))
        target = tmp_path / "service.ckpt"
        service.checkpoint().save(target)
        good = target.read_bytes()

        service.ingest(PathEvidence(epoch=0, seq=9, path=make_path(2, L[1:4])))
        real_write = pathlib.Path.write_bytes

        def torn_write(self, data):
            real_write(self, data[: len(data) // 2])
            raise OSError("disk full mid-write")

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn_write)
        with pytest.raises(OSError):
            service.checkpoint().save(target)
        monkeypatch.undo()

        assert target.read_bytes() == good  # the old checkpoint survived
        assert list(tmp_path.glob(".*.tmp.*")) == []  # no torn temp left
        restored = Zero07Service.restore(Checkpoint.load(target))
        assert restored.stats.paths_ingested == 1


class TestDeltaCheckpoint:
    def _service_pair(self):
        config = static_config()
        _, events = recorded_run(config)
        return events

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_service_delta_merges_back_to_the_full_state(self, engine):
        events = self._service_pair()
        third = len(events) // 3
        service = Zero07Service(engine=engine)
        service.ingest_batch(events[:third])
        base = service.checkpoint()
        service.ingest_batch(events[third : 2 * third])
        delta = service.checkpoint(base=base)
        assert delta.is_delta
        full = service.checkpoint()
        merged = base.apply_delta(delta)
        assert merged == full
        restored = Zero07Service.restore(merged)
        epoch = max(service.open_epochs)
        assert report_signature(restored.report(epoch)) == report_signature(
            service.report(epoch)
        )

    def test_sharded_delta_merges_back_to_the_full_state(self):
        events = self._service_pair()
        third = len(events) // 3
        fleet = ShardedService(num_shards=2)
        fleet.ingest_batch(events[:third])
        base = fleet.checkpoint()
        fleet.ingest_batch(events[third : 2 * third])
        delta = fleet.checkpoint(base=base)
        assert delta.is_delta
        merged = base.apply_delta(delta)
        assert merged == fleet.checkpoint()
        restored = ShardedService.restore(merged)
        epoch = max(e for i in range(2) for e in fleet.shard(i).open_epochs)
        assert report_signature(restored.report(epoch)) == report_signature(
            fleet.report(epoch)
        )

    def test_delta_round_trips_through_the_binary_container(self):
        events = self._service_pair()
        half = len(events) // 2
        service = Zero07Service()
        service.ingest_batch(events[:half])
        base = Checkpoint.from_bytes(service.checkpoint().to_bytes())
        service.ingest_batch(events[half:])
        delta = Checkpoint.from_bytes(
            service.checkpoint(base=base).to_bytes()
        )
        merged = base.apply_delta(delta)
        assert merged == service.checkpoint()

    def test_delta_is_smaller_than_the_full_checkpoint(self):
        from repro.loadgen import EvidenceLoadGenerator

        generator = EvidenceLoadGenerator(
            fabric="tiny", events_per_epoch=2_000, seed=7
        )
        events = generator.epoch_events(0, tick=False)
        service = Zero07Service()
        cut = (len(events) * 9) // 10
        service.ingest_batch(events[:cut], owned=True)
        base = service.checkpoint()
        service.ingest_batch(events[cut:], owned=True)
        delta_bytes = len(service.checkpoint(base=base).to_bytes())
        full_bytes = len(service.checkpoint().to_bytes())
        assert delta_bytes < full_bytes // 2

    def test_delta_cannot_restore_directly(self):
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])]))
        base = service.checkpoint()
        service.ingest(PathEvidence(epoch=0, seq=7, path=make_path(2, L[1:4])))
        delta = service.checkpoint(base=base)
        with pytest.raises(ValueError, match="delta"):
            Zero07Service.restore(delta)

    def test_apply_delta_rejects_a_mismatched_base(self):
        service = Zero07Service()
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])]))
        base = service.checkpoint()
        service.ingest(PathEvidence(epoch=0, seq=7, path=make_path(2, L[1:4])))
        delta = service.checkpoint(base=base)
        wrong_base = service.checkpoint()  # state moved on past the real base
        with pytest.raises(ValueError, match="fingerprint"):
            wrong_base.apply_delta(delta)


    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_a_checkpoint_is_isolated_from_later_ingests(self, engine):
        """Capture copies: nothing ingested afterwards shows through ``base``,
        and the delta against it carries exactly the bumped + new records."""
        service = Zero07Service(engine=engine)
        service.ingest_batch(
            [
                PathEvidence(0, 2 * i, make_path(i, L[i % 3 : i % 3 + 3]))
                for i in range(12)
            ]
        )
        base = service.checkpoint()
        before = base.to_bytes()
        # counts of already-checkpointed flows: one per-event bump, one batch
        service.ingest(
            RetransmissionEvidence(epoch=0, flow_id=3, retransmissions=2, seq=100)
        )
        service.ingest_batch(
            [
                RetransmissionEvidence(
                    epoch=0, flow_id=i % 4, retransmissions=1, seq=101 + i
                )
                for i in range(10)
            ]
        )
        service.ingest_batch(
            [PathEvidence(0, 200 + i, make_path(50 + i, L[1:4])) for i in range(9)]
        )
        # out of order: the record stays where it arrived, last
        service.ingest(PathEvidence(0, 5, make_path(99, L[:2])))
        assert service.stats.out_of_order_events == 1
        service.report(0)
        assert base.to_bytes() == before
        delta = service.checkpoint(base=base)
        (carried,) = delta.payload["epochs"]
        carried = epoch_columns(carried, delta.columns)
        assert carried["seq"].tolist() == [0, 2, 4, 6] + list(range(200, 209)) + [5]
        assert carried["rs"].tolist() == list(range(100, 111))
        assert base.apply_delta(delta) == service.checkpoint()
        assert base.to_bytes() == before

    def test_a_base_from_another_service_is_refused(self):
        """Records keep their arrival order, so a base taken from this same
        service is a prefix of its rows; a base from a service fed the same
        epoch in another order is not, and the capture refuses it rather
        than guess how the two streams line up."""
        paths = [
            PathEvidence(0, i, make_path(i, L[i % 3 : i % 3 + 3])) for i in range(6)
        ]
        live, replica = Zero07Service(), Zero07Service()
        live.ingest_batch(paths)
        replica.ingest_batch(paths[::-1])
        with pytest.raises(ValueError, match="not a prefix"):
            live.checkpoint(base=replica.checkpoint())

    def test_equality_compares_the_records_not_their_count(self):
        def capture(flow_id, links=L[:3]):
            service = Zero07Service()
            service.ingest(PathEvidence(0, 0, make_path(flow_id, links)))
            return service.checkpoint()

        assert capture(1) == capture(1)
        assert capture(1) == Checkpoint.from_bytes(capture(1).to_bytes())
        assert capture(1) != capture(2)  # same shape, different content
        assert capture(1) != capture(1, L[1:4])  # same ids, other links


# ----------------------------------------------------------------------
# the container boundary: old bytes, damaged bytes
# ----------------------------------------------------------------------


class TestContainerCompatibility:
    def test_containers_written_by_an_earlier_commit_load_merge_and_restore(self):
        """``tests/data/checkpoints`` was written before checkpoints went
        columnar in memory; the bytes must keep meaning the same state."""
        base, delta, full = (
            Checkpoint.load(CHECKPOINT_FIXTURES / f"{name}.ckpt")
            for name in ("base", "delta", "full")
        )
        assert delta.is_delta and not base.is_delta and not full.is_delta
        merged = base.apply_delta(delta)
        assert merged == full
        restored = Zero07Service.restore(merged)
        reference = Zero07Service.restore(full)
        assert restored.open_epochs == reference.open_epochs == [1, 2]
        for epoch in reference.open_epochs:
            assert report_signature(restored.report(epoch)) == report_signature(
                reference.report(epoch)
            )
        # and what this code writes is the same document again
        assert Checkpoint.from_bytes(merged.to_bytes()) == full

    def test_a_json_document_is_refused_as_retired(self, tmp_path):
        """Only containers load: a JSON checkpoint document, which earlier
        versions wrote, is one ``ValueError`` naming its retirement."""
        document = tmp_path / "full.json"
        document.write_text(json.dumps({"version": 2, "kind": "service", "epochs": []}))
        with pytest.raises(ValueError, match="JSON checkpoint documents are retired"):
            Checkpoint.load(document)


class TestContainerDamage:
    """``from_bytes`` turns any damage into ``ValueError`` — or the damage
    did not reach the data (zip slack, redundant headers) and the state is
    exactly the original's."""

    @pytest.fixture(scope="class")
    def containers(self):
        """``full.ckpt`` as shipped and as this code writes it again."""
        shipped = (CHECKPOINT_FIXTURES / "full.ckpt").read_bytes()
        checkpoint = Checkpoint.from_bytes(shipped)
        state = Zero07Service.restore(checkpoint).checkpoint()
        return [(shipped, state), (checkpoint.to_bytes(), state)]

    @staticmethod
    def _loads_to(blob, state):
        try:
            checkpoint = Checkpoint.from_bytes(blob)
        except ValueError:
            return True
        return Zero07Service.restore(checkpoint).checkpoint() == state

    def test_single_bit_flips(self, containers):
        import random

        rng = random.Random(14)
        for blob, state in containers:
            for _ in range(600):
                damaged = bytearray(blob)
                damaged[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
                assert self._loads_to(bytes(damaged), state)

    def test_truncations(self, containers):
        for blob, _ in containers:
            for cut in range(0, len(blob), max(1, len(blob) // 60)):
                with pytest.raises(ValueError):
                    Checkpoint.from_bytes(blob[:cut])

    def test_a_bit_flip_inside_any_stored_member_is_refused(self, containers):
        """A stored member has no deflate framing to trip on: its CRC-32
        catches a flipped bit in the middle of its array data."""
        import io
        import zipfile

        import numpy as np

        blob = containers[1][0]
        body_at = blob.index(b"PK\x03\x04")
        with zipfile.ZipFile(io.BytesIO(blob[body_at:])) as npz:
            members = npz.infolist()
            arrays = {m.filename: npz.read(m) for m in members}
        assert members and {m.compress_type for m in members} == {zipfile.ZIP_STORED}
        for member in members:
            # local header: 30 bytes + name + extra, then the member's .npy
            name_len, extra_len = np.frombuffer(
                blob, "<u2", 2, body_at + member.header_offset + 26
            ).tolist()
            npy = arrays[member.filename]
            data_len = int(np.load(io.BytesIO(npy)).nbytes)
            assert data_len, member.filename
            npy_header_len = len(npy) - data_len
            at = (
                body_at + member.header_offset + 30 + name_len + extra_len
                + npy_header_len + data_len // 2
            )
            damaged = bytearray(blob)
            damaged[at] ^= 0x10
            crc = "corrupt binary checkpoint: BadZipFile: Bad CRC-32"
            with pytest.raises(ValueError, match=crc):
                Checkpoint.from_bytes(bytes(damaged))

    @pytest.mark.parametrize(
        "column, damage",
        [
            ("seq", lambda a: a[[*range(1, len(a)), len(a) - 1]]),  # a seq twice
            ("seq", lambda a: a - 1),  # a record without a seq (-1)
            ("rs", lambda a: a - 100),  # consumed update seqs below 0
            ("len", lambda a: a + 1),  # does not delimit the hops
            ("len", lambda a: a * 0),  # empty paths
            ("hop", lambda a: a + 10_000),  # outside the link table
            ("sh", lambda a: a - 10_000),  # outside the name table
            ("sp", lambda a: a * 0 + 70_000),  # past the largest port
            ("flow", lambda a: a[:-1]),  # shorter than count
            ("retr", lambda a: a.astype(float)),  # not integers
        ],
    )
    def test_inconsistent_columns_are_rejected(self, column, damage):
        from repro.api.checkpoint import CheckpointColumns

        good = Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt")
        arrays = dict(good.columns.arrays)
        arrays[f"e0_{column}"] = damage(arrays[f"e0_{column}"])
        crafted = Checkpoint(
            good.payload,
            CheckpointColumns(arrays, good.columns.names, good.columns.links),
        )
        with pytest.raises(ValueError, match="corrupt binary checkpoint"):
            Checkpoint.from_bytes(crafted.to_bytes())

    def test_a_path_longer_than_eight_hops_is_rejected_on_restore(self):
        from repro.api.checkpoint import CheckpointColumns

        good = Checkpoint.load(CHECKPOINT_FIXTURES / "full.ckpt")
        arrays = dict(good.columns.arrays)
        lens, hops = arrays["e0_len"].copy(), arrays["e0_hop"]
        # the first record crosses its first link again until it has 9 hops
        arrays["e0_hop"] = hops[[0] * (9 - int(lens[0])) + list(range(len(hops)))]
        lens[0] = 9
        arrays["e0_len"] = lens
        crafted = Checkpoint(
            good.payload,
            CheckpointColumns(arrays, good.columns.names, good.columns.links),
        )
        with pytest.raises(PathTooLongError, match="9 links"):
            Zero07Service.restore(crafted)
        with pytest.raises(PathTooLongError, match="9 links"):
            Checkpoint.from_bytes(crafted.to_bytes())


# ----------------------------------------------------------------------
# retention-window errors
# ----------------------------------------------------------------------
class TestReportUnavailable:
    def test_evicted_epoch_raises_typed_error_naming_the_window(self):
        service = Zero07Service(retain_reports=1)
        for epoch in range(3):
            service.ingest_batch(
                evidence_stream(
                    epoch, [make_path(epoch, L[:3], epoch=epoch)], tick=True
                )
            )
        with pytest.raises(ReportUnavailableError) as excinfo:
            service.report(0)
        error = excinfo.value
        assert error.epoch == 0
        assert error.last_finalized == 2
        assert error.retain_reports == 1
        assert "retain_reports=1" in str(error)

    def test_error_is_a_keyerror_for_existing_callers(self):
        service = Zero07Service(retain_reports=1)
        for epoch in range(3):
            service.ingest_batch(
                evidence_stream(
                    epoch, [make_path(epoch, L[:3], epoch=epoch)], tick=True
                )
            )
        with pytest.raises(KeyError):
            service.report(0)
        # epochs still inside the window keep answering
        assert service.report(2).num_paths_analyzed == 1

    def test_sharded_service_raises_the_same_error(self):
        fleet = ShardedService(num_shards=2, retain_reports=1)
        for epoch in range(3):
            fleet.ingest_batch(
                evidence_stream(
                    epoch, [make_path(epoch, L[:3], epoch=epoch)], tick=True
                )
            )
        with pytest.raises(ReportUnavailableError) as excinfo:
            fleet.report(0)
        assert excinfo.value.retain_reports == 1


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestShardedService:
    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("make_config", [static_config, dynamic_config])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_agrees_with_unsharded(self, engine, make_config, num_shards):
        config = make_config(engine)
        reports, events = recorded_run(config)
        fleet = ShardedService(
            num_shards=num_shards, blame_config=config.blame, engine=engine
        )
        fleet.ingest_batch(events)
        for epoch, report in enumerate(reports):
            assert report_signature(fleet.report(epoch)) == report_signature(report)

    def test_shards_actually_partition_the_evidence(self):
        config = static_config()
        _, events = recorded_run(config)
        fleet = ShardedService(num_shards=2, blame_config=config.blame)
        # don't tick: leave the evidence buffered so per-shard loads show
        fleet.ingest_batch(e for e in events if isinstance(e, PathEvidence))
        loads = [fleet.shard(i).stats.paths_ingested for i in range(2)]
        assert sum(loads) == sum(1 for e in events if isinstance(e, PathEvidence))
        assert all(load > 0 for load in loads)

    def test_duplicate_pending_retransmission_is_dropped_at_the_facade(self):
        """A redelivered count update must not double-buffer pre-path."""
        fleet = ShardedService(num_shards=2)
        update = RetransmissionEvidence(epoch=0, flow_id=5, retransmissions=1, seq=1)
        fleet.ingest(update)
        fleet.ingest(update)  # redelivery while the flow's path is pending
        fleet.ingest(PathEvidence(epoch=0, seq=0, path=make_path(5, L[:2])))
        [contribution] = fleet.report(0).tally.contributions
        assert contribution.retransmissions == 2

    def test_mid_epoch_merged_report(self):
        paths = [make_path(i, L[i % 3 : i % 3 + 3], src_host=f"h{i}") for i in range(6)]
        fleet = ShardedService(num_shards=4)
        fleet.ingest_batch(evidence_stream(0, paths))
        single = Zero07Service()
        single.ingest_batch(evidence_stream(0, paths))
        assert report_signature(fleet.report(0)) == report_signature(single.report(0))


@pytest.mark.parametrize(
    "shape, runs",
    [
        ("", []),
        ("p0 p0 u0", [(0, 3)]),
        ("p0 u0 t0 p1", [(0, 2), (None, 1), (1, 1)]),
        ("p0 p1 p0", [(0, 1), (1, 1), (0, 1)]),  # never merged across epochs
        ("t0 t1", [(None, 1), (None, 1)]),
    ],
)
def test_a_batch_segments_into_maximal_single_epoch_runs(shape, runs):
    """``iter_evidence_runs``: p = path, u = count update, t = tick, each
    with its epoch; a run is ``(epoch, length)``, a lone event ``(None, 1)``."""
    events = []
    for seq, token in enumerate(shape.split()):
        kind, epoch = token[0], int(token[1:])
        if kind == "p":
            path = make_path(seq, L[:2])
            events.append(PathEvidence(epoch=epoch, seq=seq, path=path))
        elif kind == "u":
            events.append(
                RetransmissionEvidence(epoch=epoch, flow_id=0, retransmissions=2, seq=seq)
            )
        else:
            events.append(EpochTick(epoch=epoch))
    segments = list(iter_evidence_runs(events))
    assert [(epoch, len(chunk)) for _, epoch, chunk in segments] == runs
    assert [event for _, _, chunk in segments for event in chunk] == events


# ----------------------------------------------------------------------
# the evidence recorder tap
# ----------------------------------------------------------------------
def tapped_stream():
    """Two epochs: paths, a count update, and each epoch's tick."""
    first = evidence_stream(0, [make_path(1, L[:3]), make_path(2, L[1:4])])
    update = RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=2, seq=2)
    second = evidence_stream(1, [make_path(3, L[2:5], epoch=1)], tick=True)
    return first + [update, EpochTick(epoch=0)] + second


SERVICES = {
    "service": Zero07Service,
    "sharded": lambda: ShardedService(num_shards=2),
}


class TestEvidenceRecorder:
    @pytest.mark.parametrize("kind", SERVICES)
    def test_a_tapped_batch_is_recorded_once_with_its_ticks(self, kind):
        """``ingest_batch`` hands ticks and runs on to ``ingest`` and
        ``ingest_run``: the tap records each event once all the same."""
        events = tapped_stream()
        service = SERVICES[kind]()
        recorder = EvidenceRecorder(service)
        service.ingest_batch(events)
        assert list(map(evidence_to_dict, recorder.events)) == list(
            map(evidence_to_dict, events)
        )
        replayed = SERVICES[kind]()
        recorder.replay(replayed)
        for epoch in (0, 1):
            assert report_signature(replayed.report(epoch)) == report_signature(
                service.report(epoch)
            )

    @pytest.mark.parametrize("kind", SERVICES)
    def test_stacked_recorders_each_record_a_batch_once(self, kind):
        events = tapped_stream()
        service = SERVICES[kind]()
        inner, outer = EvidenceRecorder(service), EvidenceRecorder(service)
        service.ingest_batch(events)
        assert len(inner.events) == len(outer.events) == len(events)

    def test_a_tapped_run_is_recorded_and_folded_as_one_run(self):
        run = evidence_stream(0, [make_path(flow, L[:3]) for flow in range(12)])
        tapped, plain = Zero07Service(), Zero07Service()
        recorder = EvidenceRecorder(tapped)
        tapped.ingest_run(0, run)
        plain.ingest_run(0, run)
        assert len(recorder.events) == len(run)
        assert tapped.stats.as_dict() == plain.stats.as_dict()
        assert report_signature(tapped.report(0)) == report_signature(plain.report(0))

    def test_a_tapped_batch_reaches_the_service_whole(self, monkeypatch):
        """A tapped batch is not split into per-event ``ingest`` calls: the
        service admits it whole."""

        def per_event(self, event):
            raise AssertionError("a tapped batch was replayed event by event")

        monkeypatch.setattr(Zero07Service, "ingest", per_event)
        events = evidence_stream(0, [make_path(flow, L[:3]) for flow in range(64)])
        service = Zero07Service()
        recorder = EvidenceRecorder(service)
        service.ingest_batch(events)
        assert len(recorder.events) == 64
        assert service.stats.paths_ingested == 64


# ----------------------------------------------------------------------
# report sinks
# ----------------------------------------------------------------------
class TestReportSinks:
    def test_sinks_fire_once_per_finalized_epoch(self):
        config = static_config()
        log = DetectionLogSink()
        seen = []
        system, _ = build_system(config, sinks=(log,))
        system.service.add_sink(
            type("Probe", (), {"on_report": staticmethod(seen.append)})()
        )
        system.run(config.epochs)
        assert [epoch for epoch, _ in log.rows] == list(range(config.epochs))
        assert [report.epoch for report in seen] == list(range(config.epochs))

    def test_aggregator_as_sink_matches_post_hoc_aggregation(self):
        config = dynamic_config()
        streamed = MultiEpochAggregator()
        result = run_scenario(config, sinks=(streamed,))
        replayed = MultiEpochAggregator()
        for report in result.reports:
            replayed.ingest(report)
        assert streamed.epochs_ingested == replayed.epochs_ingested == config.epochs
        assert streamed.detections_per_epoch() == replayed.detections_per_epoch()
        assert health_records(streamed) == health_records(replayed)

    def test_streaming_detection_scorer_skips_epochs_without_truth(self):
        scorer = StreamingDetectionScorer(truth_lookup=lambda epoch: None)
        service = Zero07Service(sinks=(scorer,))
        service.ingest_batch(evidence_stream(0, [make_path(1, L[:3])], tick=True))
        assert len(scorer.scores) == 0

    def test_streaming_detection_scorer(self):
        config = static_config()
        system, _ = build_system(config)
        scorer = StreamingDetectionScorer(truth_lookup=system.ground_truth)
        system.service.add_sink(scorer)
        system.run(config.epochs)
        assert len(scorer.scores) == config.epochs
        result = run_scenario(config)
        for epoch in range(config.epochs):
            expected = result.detection_007(epoch_index=epoch)
            assert scorer.scores[epoch] == expected


# ----------------------------------------------------------------------
# pipeline adapters and rollover
# ----------------------------------------------------------------------
class TestPipelineAdapters:
    def test_iter_epochs_streams_the_same_reports_as_run(self):
        config = static_config()
        system_a, _ = build_system(config)
        system_b, _ = build_system(config)
        streamed = [
            report_signature(report)
            for _, report in system_a.iter_epochs(config.epochs)
        ]
        batched = [
            report_signature(report) for _, report in system_b.run(config.epochs)
        ]
        assert streamed == batched

    def test_service_releases_epoch_state_as_the_run_streams(self):
        config = static_config()
        system, _ = build_system(config)
        for _, report in system.iter_epochs(config.epochs):
            assert system.service.open_epochs == []
        assert system.service.stats.epochs_finalized == config.epochs

    def test_rerunning_a_finalized_epoch_yields_a_fresh_matching_report(self):
        """Replaying an old epoch recomputes out-of-band like the batch loop.

        The service already closed (and may have evicted) the epoch, so the
        adapter must not hand back a stale cached report — or crash.
        """
        config = static_config()
        system, _ = build_system(config)
        system.run(3)
        sim, report = system.run_epoch(1)  # replay: rng has advanced
        assert report.epoch == 1
        # the report matches THIS simulation, not the first run's cache
        agent = AnalysisAgent(blame_config=config.blame, engine=config.engine)
        # discovered paths were cleared, but path counts must line up
        assert report.num_paths_analyzed > 0
        assert len(sim.retransmission_events) >= report.num_paths_analyzed
        # and beyond the retention window it must not raise
        system2, _ = build_system(dataclasses.replace(static_config(), epochs=1))
        system2.run(10)
        _, replayed = system2.run_epoch(0)
        assert replayed.epoch == 0

    def test_stats_reset_at_epoch_rollover(self):
        """Regression: a reused system reports per-epoch stats, not all-time.

        Before the fix, ``MonitoringStats``/``PathDiscoveryStats`` were never
        reset, so after two epochs the counters held epoch0+epoch1 sums.
        """
        config = static_config()
        system, _ = build_system(config)
        (sim0, _), (sim1, _) = system.run(2)
        assert len(sim0.retransmission_events) > 0
        assert len(sim1.retransmission_events) > 0
        # after the run the counters cover the *last* epoch only
        assert system.monitoring.stats.retransmission_events == len(
            sim1.retransmission_events
        )
        assert system.monitoring.stats.retransmission_events != len(
            sim0.retransmission_events
        ) + len(sim1.retransmission_events)
        assert (
            system.path_discovery.stats.triggered
            == system.monitoring.stats.retransmission_events
        )

    def test_stats_reset_methods_zero_every_counter(self):
        config = static_config()
        system, _ = build_system(config)
        system.run_epoch(0)
        assert system.monitoring.stats.retransmission_events > 0
        assert system.path_discovery.stats.traceroutes_sent > 0
        system.monitoring.stats.reset()
        system.path_discovery.stats.reset()
        assert dataclasses.asdict(system.monitoring.stats) == {
            "retransmission_events": 0,
            "setup_failure_events": 0,
            "paths_discovered": 0,
        }
        assert all(
            value == 0
            for value in dataclasses.asdict(system.path_discovery.stats).values()
        )
