"""The report view on the fleet's query surfaces.

Every evidence holder that answers ``report()`` returns the identical object
while no evidence for the epoch arrived, and the query socket caches the
encoded reply line against that object.  The oracles are the existing ones:
a fresh core (or plain service) fed the same prefix, and ``report_to_json``
of a fresh materialization — a stale view shows as a differing answer.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.api.events import EpochTick, PathEvidence, RetransmissionEvidence
from repro.api.service import ReportUnavailableError, Zero07Service
from repro.api.sharded import ShardedService
from repro.api.wire import LinkRemap, WireDecoder, WireEncoder
from repro.fleet import analyzer as analyzer_module
from repro.fleet.agent import FleetAgentClient
from repro.fleet.analyzer import (
    FLOWS_PAGE_LIMIT,
    AnalyzerThread,
    ColumnarIngestCore,
    FleetAnalyzer,
    ServiceIngestCore,
    report_to_json,
)
from repro.fleet.protocol import Endpoint
from repro.fleet.runner import FleetQueryClient, build_generator, json_signature
from repro.testing import report_signature

EVENTS_PER_EPOCH = 1_200
CHUNK = 200


def epoch_events(epoch):
    generator = build_generator("tiny", "skewed", "none", 11, EVENTS_PER_EPOCH)
    return generator.epoch_events(epoch, tick=False)


def reply_line(response) -> bytes:
    """A reply exactly as the query socket frames it."""
    return json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# (a) the columnar core's versioned view
# ----------------------------------------------------------------------
class CoreFeed:
    """Delivers ``("chunk" | "events" | "tick", epoch, events)`` steps to a
    core over its own wire stream, as one agent connection would."""

    def __init__(self, core) -> None:
        self.core = core
        self._encoder = WireEncoder(streams=1)
        self._decoder = WireDecoder()
        self._remap = LinkRemap(self._decoder, core._link_index)

    def deliver(self, step) -> None:
        kind, epoch, events = step
        if kind == "tick":
            self.core.tick(epoch)
        elif kind == "chunk":
            payload = self._encoder.encode_run(0, 0, epoch, events)
            self.core.append_chunk(self._decoder.decode_columns(payload), self._remap)
        else:  # what the analyzer hands over after trimming a redelivery
            seqs = np.asarray([event.seq for event in events], dtype=np.int64)
            self.core.append_events(epoch, events, seqs)


def core_deliveries():
    first, second = epoch_events(0), epoch_events(1)
    return [
        ("chunk", 0, first[0:200]),
        ("chunk", 0, first[200:400]),
        ("events", 0, first[400:600]),  # the fresh tail of a trimmed chunk
        ("chunk", 1, second[0:300]),
        ("chunk", 0, first[800:1000]),
        ("chunk", 0, first[600:800]),  # behind the previous: marks 0 dirty
        ("chunk", 0, first[0:200]),  # a duplicate that slipped the trim
        ("events", 1, second[300:450]),
        ("chunk", 0, first[1000:1200]),
        ("tick", 0, None),
        ("chunk", 1, second[450:1200]),
        ("tick", 1, None),
    ]


def test_core_view_is_identical_until_evidence_arrives_and_never_stale():
    deliveries = core_deliveries()
    feed = CoreFeed(ColumnarIngestCore())
    core = feed.core
    previous = {}
    for upto, step in enumerate(deliveries, start=1):
        feed.deliver(step)
        fresh = CoreFeed(ColumnarIngestCore())
        service = Zero07Service(engine="arrays")
        for kind, epoch, events in deliveries[:upto]:
            fresh.deliver((kind, epoch, events))
            service.ingest_batch([EpochTick(epoch)] if kind == "tick" else events)
        for epoch in (0, 1):
            report = core.report(epoch)
            expected = report_signature(fresh.core.report(epoch))
            assert report_signature(report) == expected, (upto, epoch)
            assert report_signature(service.report(epoch)) == expected, (upto, epoch)
            if epoch not in core._retained and epoch not in core._final_reports:
                continue  # no evidence yet: an empty report, and no state
            assert core.report(epoch) is report, (upto, epoch)
            if step[1] != epoch and epoch in previous:
                # a delivery or a tick for another epoch leaves this view alone
                assert report is previous[epoch], (upto, epoch)
            previous[epoch] = report
    assert core.replayed_epochs > 0  # epoch 0 went dirty on the way
    assert core._views == {} and core._retained == {}


def test_core_dirty_epoch_replays_once_per_change_not_per_query():
    feed = CoreFeed(ColumnarIngestCore())
    first = epoch_events(0)
    feed.deliver(("chunk", 0, first[200:400]))
    feed.deliver(("chunk", 0, first[0:200]))  # out of order: dirty
    assert not feed.core._store.is_clean(0)
    report = feed.core.report(0)
    replays = feed.core.replayed_epochs
    for _ in range(5):
        assert feed.core.report(0) is report
    assert feed.core.replayed_epochs == replays


def test_the_final_report_owns_the_tally_the_store_held():
    """An open epoch's report is a snapshot; the closing one takes the live
    tally itself, since the store drops the epoch in the next statement."""
    feed = CoreFeed(ColumnarIngestCore())
    first = epoch_events(0)
    feed.deliver(("chunk", 0, first[0:600]))
    core = feed.core
    held = core._store._lanes[0].tally
    early = core.report(0)
    assert early.tally is not held
    early_signature = report_signature(early)
    feed.deliver(("chunk", 0, first[600:1200]))
    feed.deliver(("tick", 0, None))
    assert core.report(0).tally is held
    assert 0 not in core._store._lanes
    assert report_signature(early) == early_signature


# ----------------------------------------------------------------------
# the analyzer on real sockets
# ----------------------------------------------------------------------
@pytest.fixture
def analyzer_thread():
    def start(core, expected_agents=1):
        analyzer = FleetAnalyzer(
            core, expected_agents=expected_agents, idle_timeout=60.0
        )
        thread = AnalyzerThread(
            analyzer,
            Endpoint(kind="tcp", host="127.0.0.1", port=0),
            Endpoint(kind="tcp", host="127.0.0.1", port=0),
        )
        threads.append(thread)
        return thread

    threads = []
    yield start
    for thread in threads:
        thread.stop()


class RawQuery:
    """The query socket by hand: request lines in, raw reply lines out."""

    def __init__(self, endpoint) -> None:
        self._sock = endpoint.connect(timeout=20.0)
        self._reader = self._sock.makefile("rb")

    def ask(self, request) -> bytes:
        return self.ask_raw(json.dumps(request).encode("utf-8") + b"\n")

    def ask_raw(self, data: bytes) -> bytes:
        self._sock.sendall(data)
        return self._reader.readline()

    def at_eof(self) -> bool:
        return self._reader.readline() == b""

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def wait_finalized(query_endpoint, epoch, timeout=30.0):
    deadline = time.monotonic() + timeout
    with FleetQueryClient(query_endpoint) as query:
        while True:
            stats = query.request({"cmd": "stats"})
            if stats["last_finalized"] == epoch:
                return stats["stats"]
            assert time.monotonic() < deadline, "analyzer never finalized"
            time.sleep(0.02)


def make_core(kind):
    if kind == "columns":
        return ColumnarIngestCore()
    if kind == "service":
        return ServiceIngestCore(Zero07Service(engine="arrays"))
    return ServiceIngestCore(ShardedService(num_shards=2))


CORE_KINDS = ["columns", "service", "sharded"]


# -- (c) the reply line ---------------------------------------------------
@pytest.mark.parametrize("core_kind", CORE_KINDS)
def test_repeated_report_is_byte_equal_and_fresh_after_the_next_chunk(
    analyzer_thread, core_kind
):
    thread = analyzer_thread(make_core(core_kind))
    stats = thread.analyzer.stats
    events = epoch_events(0)
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    request = {"cmd": "report", "epoch": 0}
    with RawQuery(thread.query_endpoint) as query:
        previous = None
        for view, sent in enumerate((400, 800, 1200), start=1):
            client.send_run(0, events[sent - 400 : sent])
            client.drain()  # every chunk acked, so every chunk is in the core
            hits = stats.report_view_hits
            line = query.ask(request)
            assert stats.report_view_hits == hits
            assert line != previous
            reference = Zero07Service(engine="arrays")
            reference.ingest_batch(events[:sent])
            assert line == reply_line(
                {
                    "ok": True,
                    "report": report_to_json(reference.report(0)),
                    "view": view,
                }
            )
            assert query.ask(request) == line
            assert query.ask({"cmd": "report", "epoch": None}) == line
            assert stats.report_view_hits == hits + 2
            previous = line
    client.close()
    assert stats.report_queries == 9
    assert stats.reports_encoded == 3
    assert stats.report_view_hits == 6


def test_counters_match_a_fleet_tcp_shaped_query_pass(analyzer_thread):
    """Cold + repeat after chunks of both agents, then the finalized report:
    every repeat reuses its line and every distinct report is encoded once."""
    thread = analyzer_thread(ColumnarIngestCore(), expected_agents=2)
    events = epoch_events(0)
    half = len(events) // 2
    agents = [
        FleetAgentClient(f"v-{index}", thread.endpoint, chunk_events=CHUNK)
        for index in range(2)
    ]
    for agent in agents:
        agent.connect()
    request = {"cmd": "report", "epoch": 0}
    repeats = 0
    with FleetQueryClient(thread.query_endpoint) as query:
        for agent, lo, hi in (
            (agents[0], 0, CHUNK),
            (agents[0], CHUNK, half),
            (agents[1], half, half + CHUNK),
            (agents[1], half + CHUNK, len(events)),
        ):
            agent.send_run(0, events[lo:hi])
            agent.drain()
            cold = query.request(request)
            again = query.request(request)
            repeats += 1
            assert cold == again and cold["ok"] is True
        for agent in agents:
            agent.tick(0)
            agent.drain()
        wait_finalized(thread.query_endpoint, 0)
        final = query.request(request)
        assert query.request(request) == final
        repeats += 1
        served = query.request({"cmd": "stats"})["stats"]
    for agent in agents:
        agent.close()
    assert served["report_view_hits"] == repeats == 5
    assert served["reports_encoded"] == 5  # four cuts and the finalized report
    assert served["report_queries"] == 10


def test_evicted_epoch_answers_unavailable_never_a_stale_line(analyzer_thread):
    core = ColumnarIngestCore(retain_reports=1)
    thread = analyzer_thread(core)
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    with RawQuery(thread.query_endpoint) as query:
        client.send_run(0, epoch_events(0)[:400])
        client.tick(0)
        client.drain()
        wait_finalized(thread.query_endpoint, 0)
        request = {"cmd": "report", "epoch": 0}
        line = query.ask(request)
        assert json.loads(line)["ok"] is True
        assert query.ask(request) == line  # encoded once while it is polled
        assert thread.analyzer.stats.reports_encoded == 1
        client.send_run(1, epoch_events(1)[:400])
        client.tick(1)
        client.drain()
        wait_finalized(thread.query_endpoint, 1)
        # str() of a KeyError quotes its argument; the socket serves that text
        assert query.ask(request) == reply_line(
            {"ok": False, "error": str(ReportUnavailableError(0, 1, 1))}
        )
        assert 0 not in thread.analyzer._report_lines
    client.close()


def test_line_table_is_bounded_oldest_out_first(analyzer_thread):
    epochs = FleetAnalyzer.REPORT_LINES_KEPT + 2
    thread = analyzer_thread(ColumnarIngestCore(retain_reports=epochs))
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    for epoch in range(epochs):
        client.send_run(epoch, epoch_events(epoch)[:CHUNK])
        client.tick(epoch)
    client.drain()
    wait_finalized(thread.query_endpoint, epochs - 1)
    with RawQuery(thread.query_endpoint) as query:
        lines = [query.ask({"cmd": "report", "epoch": e}) for e in range(epochs)]
        kept = list(thread.analyzer._report_lines)
        assert kept == list(range(2, epochs))
        # an evicted epoch is simply encoded again, to the same bytes
        assert query.ask({"cmd": "report", "epoch": 0}) == lines[0]
        assert list(thread.analyzer._report_lines) == list(range(3, epochs)) + [0]
    client.close()


# -- input hardening ------------------------------------------------------
def test_overlong_query_line_is_answered_and_the_connection_closed(analyzer_thread):
    thread = analyzer_thread(ColumnarIngestCore())
    with RawQuery(thread.query_endpoint) as query:
        line = query.ask_raw(b"x" * (FleetAnalyzer.READ_LIMIT + 1))
        assert json.loads(line) == {
            "ok": False,
            "error": f"query line longer than {FleetAnalyzer.READ_LIMIT} bytes",
        }
        assert query.at_eof()
    with FleetQueryClient(thread.query_endpoint) as query:
        assert query.request({"cmd": "ping"})["pong"] is True


@pytest.mark.parametrize("body", [b"[1, 2]", b'"report"', b"7", b"null"])
def test_non_object_query_is_rejected_with_a_stable_error(analyzer_thread, body):
    thread = analyzer_thread(ColumnarIngestCore())
    with RawQuery(thread.query_endpoint) as query:
        assert json.loads(query.ask_raw(body + b"\n")) == {
            "ok": False,
            "error": "a query must be a JSON object",
        }
        assert json.loads(query.ask({"cmd": "ping"}))["pong"] is True


@pytest.mark.parametrize("epoch", ["3", True, False, 1.0, [0], {"e": 0}])
def test_report_epoch_must_be_an_integer_or_null(analyzer_thread, epoch):
    thread = analyzer_thread(ColumnarIngestCore())
    with RawQuery(thread.query_endpoint) as query:
        assert json.loads(query.ask({"cmd": "report", "epoch": epoch})) == {
            "ok": False,
            "error": "report epoch must be an integer or null",
        }
    assert thread.analyzer.stats.report_queries == 1  # rejected, and counted


@pytest.mark.parametrize("core_kind", CORE_KINDS)
def test_polling_never_seen_epochs_allocates_nothing(analyzer_thread, core_kind):
    core = make_core(core_kind)
    thread = analyzer_thread(core)
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    client.send_run(3, epoch_events(3)[:CHUNK])
    client.drain()
    with FleetQueryClient(thread.query_endpoint) as query:
        for epoch in range(4, 1_004):
            response = query.request({"cmd": "report", "epoch": epoch})
            assert response["report"]["num_paths_analyzed"] == 0
    client.close()
    assert thread.analyzer._report_lines == {}
    assert len(thread.analyzer._view_tokens) == 0
    assert thread.analyzer.stats.report_queries == 1_000
    if core_kind == "columns":
        assert list(core._retained) == [3]
        assert core._views == {} and core._final_reports == {}
    elif core_kind == "sharded":
        assert list(core.service._open) == [3] and core.service._views == {}
    else:
        assert list(core.service._epochs) == [3]


# -- epochs_finalized -----------------------------------------------------
@pytest.mark.parametrize("core_kind", CORE_KINDS)
def test_epochs_finalized_counts_what_the_ticks_closed(analyzer_thread, core_kind):
    """A stream that starts at epoch 5 and skips epoch 6: one epoch after the
    first tick (not 6), three after the second (the gap epoch closes too)."""
    thread = analyzer_thread(make_core(core_kind))
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    client.send_run(5, epoch_events(5)[:CHUNK])
    client.tick(5)
    client.drain()
    assert wait_finalized(thread.query_endpoint, 5)["epochs_finalized"] == 1
    client.send_run(7, epoch_events(7)[:CHUNK])
    client.tick(7)
    client.drain()
    assert wait_finalized(thread.query_endpoint, 7)["epochs_finalized"] == 3
    client.tick(7)  # a re-tick of a closed epoch closes nothing
    client.drain()
    client.close()
    assert thread.analyzer.stats.epochs_finalized == 3


# ----------------------------------------------------------------------
# per-flow attribution on demand: the ``flows`` verb
# ----------------------------------------------------------------------
def retraced_events(epoch=0):
    """The generator's epoch (paths and count updates) and then some flows
    discovered a second time along another flow's links with a single
    retransmission — so a flow can be a failure by one record and noise by
    another — and a count update for every other one of those."""
    events = epoch_events(epoch)
    paths = [event for event in events if isinstance(event, PathEvidence)]
    seq = len(events)
    for index, event in enumerate(paths[::12]):
        donor = paths[(12 * index + 5) % len(paths)].path
        path = replace(event.path, links=list(donor.links), retransmissions=1)
        events.append(PathEvidence(epoch=epoch, seq=seq, path=path))
        seq += 1
        if index % 2:
            events.append(
                RetransmissionEvidence(
                    epoch=epoch, flow_id=path.flow_id, retransmissions=2, seq=seq
                )
            )
            seq += 1
    return events


def oracle_report(events, epoch=0):
    """The dict engine fed one event at a time: nothing lazy, nothing bulk."""
    service = Zero07Service(engine="dicts")
    for event in events:
        service.ingest(event)
    return service.report(epoch)


def flow_entry(report, flow):
    cause = report.cause_of_flow(flow)
    return [
        flow,
        None if cause is None else str(cause),
        flow in report.noise.noise_flows,
        flow in report.noise.failure_flows,
    ]


class TestFlowPaging:
    @pytest.mark.parametrize("core_kind", CORE_KINDS)
    def test_paged_signature_and_counts_equal_the_oracle(
        self, analyzer_thread, core_kind
    ):
        thread = analyzer_thread(make_core(core_kind))
        events = retraced_events()
        cut = len(events) - 40  # mid-epoch first: some re-traces still to come
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        with FleetQueryClient(thread.query_endpoint) as query:
            for upto, tick in ((cut, False), (len(events), True)):
                client.send_run(0, events[cut:] if tick else events[:cut])
                if tick:
                    client.tick(0)
                client.drain()
                if tick:
                    wait_finalized(thread.query_endpoint, 0)
                expected = oracle_report(events[:upto])
                noise = expected.noise
                assert noise.noise_flows & noise.failure_flows  # re-traced, in both
                for page_limit in (1, 7, None):  # None: the analyzer's cap
                    assert query.report_signature(0, page_limit) == json_signature(
                        expected
                    ), (upto, page_limit)
                document = query.request({"cmd": "report", "epoch": 0})["report"]
                assert document["signature"][3:6] == [None, None, None]
                assert document["flows"] == {
                    "causes": len(expected.flow_causes),
                    "noise": len(noise.noise_flows),
                    "failure": len(noise.failure_flows),
                }
        client.close()

    def test_a_page_is_capped_and_says_where_it_is(self, analyzer_thread, monkeypatch):
        monkeypatch.setattr(analyzer_module, "FLOWS_PAGE_LIMIT", 50)
        thread = analyzer_thread(ColumnarIngestCore())
        events = epoch_events(0)
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        client.send_run(0, events)
        client.drain()
        expected = oracle_report(events)
        flows = sorted(expected.noise.noise_flows | expected.noise.failure_flows)
        with FleetQueryClient(thread.query_endpoint) as query:
            for request, ids in (
                ({}, flows[:50]),
                ({"limit": 10_000}, flows[:50]),
                ({"offset": 120, "limit": 3}, flows[120:123]),
                ({"offset": len(flows) - 2}, flows[-2:]),
                ({"offset": len(flows) + 5}, []),
                ({"limit": 0}, []),
            ):
                page = query.request({"cmd": "flows", "epoch": 0, **request})
                assert page["ok"] is True and page["epoch"] == 0
                assert page["total"] == len(flows)
                assert page["offset"] == request.get("offset", 0)
                assert page["flows"] == [flow_entry(expected, f) for f in ids]
            assert query.report_signature(0) == json_signature(expected)
        client.close()

    @pytest.mark.parametrize("core_kind", CORE_KINDS)
    def test_ids_lookup_equals_cause_of_flow(self, analyzer_thread, core_kind):
        thread = analyzer_thread(make_core(core_kind))
        events = retraced_events()
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        client.send_run(0, events)
        client.drain()
        expected = oracle_report(events)
        noise = expected.noise
        both = sorted(noise.noise_flows & noise.failure_flows)
        unknown = max(noise.noise_flows | noise.failure_flows) + 1
        ids = (
            [unknown, both[0]]
            + sorted(noise.noise_flows)[:5]
            + sorted(noise.failure_flows)[-5:]
            + [-7, both[0]]  # asked twice, answered twice, in the order asked
        )
        with FleetQueryClient(thread.query_endpoint) as query:
            reply = query.request({"cmd": "flows", "epoch": 0, "ids": ids})
            report_view = query.request({"cmd": "report", "epoch": 0})["view"]
        client.close()
        assert reply["ok"] is True and reply["view"] == report_view
        assert reply["flows"] == [flow_entry(expected, flow) for flow in ids]
        assert reply["flows"][0] == [unknown, None, False, False]
        assert reply["flows"][1][2:] == [True, True]
        assert "total" not in reply  # a lookup never sorts the epoch's flows

    def test_a_chunk_between_two_pages_moves_the_view_and_the_pager_restarts(
        self, analyzer_thread
    ):
        thread = analyzer_thread(ColumnarIngestCore())
        events = retraced_events()
        cut = 600
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        client.send_run(0, events[:cut])
        client.drain()

        class Interrupted(FleetQueryClient):
            """Delivers the rest of the epoch right after the first page."""

            page_views = []

            def request(self, payload):
                response = super().request(payload)
                if payload["cmd"] == "flows":
                    self.page_views.append(response["view"])
                    if len(self.page_views) == 1:
                        client.send_run(0, events[cut:])
                        client.drain()
                return response

        with Interrupted(thread.query_endpoint) as query:
            before = query.request({"cmd": "report", "epoch": 0})["view"]
            signature = query.report_signature(0, page_limit=100)
            # page 1 of the old view, page 2 refused, then one whole walk
            assert query.page_views[0] == before
            assert before not in query.page_views[1:]
            assert len(set(query.page_views[1:])) == 1
            flows = len(set(signature[4]) | set(signature[5]))
            assert len(query.page_views) == 2 + -(-flows // 100)
            # nothing arrived since: the token holds, whatever the verb
            after = query.request({"cmd": "report", "epoch": 0})["view"]
            assert after == query.page_views[-1]
        client.close()
        assert signature == json_signature(oracle_report(events))
        assert signature != json_signature(oracle_report(events[:cut]))

    def test_an_epoch_that_never_settles_is_an_error_not_a_blend(self, analyzer_thread):
        thread = analyzer_thread(ColumnarIngestCore())
        events = epoch_events(0)
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=50)
        client.connect()
        client.send_run(0, events[:200])
        client.drain()
        sent = [200]

        class Restless(FleetQueryClient):
            def request(self, payload):
                response = super().request(payload)
                if payload["cmd"] == "flows":  # evidence lands after every page
                    client.send_run(0, events[sent[0] : sent[0] + 50])
                    client.drain()
                    sent[0] += 50
                return response

        with Restless(thread.query_endpoint) as query:
            with pytest.raises(RuntimeError, match="kept changing"):
                query.report_signature(0, page_limit=20)
        assert sent[0] <= len(events)  # it gave up; the stream did not run dry
        client.close()

    def test_the_helper_on_an_empty_epoch_and_on_bad_arguments(self, analyzer_thread):
        thread = analyzer_thread(ColumnarIngestCore())
        with FleetQueryClient(thread.query_endpoint) as query:
            assert query.report_signature(9) == json_signature(
                Zero07Service().report(9)
            )
            with pytest.raises(RuntimeError, match="must not be negative"):
                query.report_signature(-1)
            with pytest.raises(ValueError, match="page_limit"):
                query.report_signature(0, page_limit=0)


class TestQueryArguments:
    def test_every_report_query_is_counted_rejected_ones_too(self, analyzer_thread):
        """``hits + encodes + error replies == queries``, as AnalyzerStats says."""
        thread = analyzer_thread(ColumnarIngestCore(retain_reports=1))
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        for epoch in (0, 1):
            client.send_run(epoch, epoch_events(epoch)[:CHUNK])
            client.tick(epoch)
        client.drain()
        client.close()
        wait_finalized(thread.query_endpoint, 1)
        errors = 0
        with FleetQueryClient(thread.query_endpoint) as query:
            for epoch in (1, 1, True, "0", -3, 0):  # 0 is evicted by now
                response = query.request({"cmd": "report", "epoch": epoch})
                errors += response["ok"] is False
        stats = thread.analyzer.stats
        assert errors == 4
        assert stats.report_queries == 6
        assert stats.report_view_hits + stats.reports_encoded + errors == 6

    @pytest.mark.parametrize("verb", ["report", "flows"])
    def test_a_negative_epoch_is_an_error_reply(self, analyzer_thread, verb):
        thread = analyzer_thread(ColumnarIngestCore())
        with RawQuery(thread.query_endpoint) as query:
            assert json.loads(query.ask({"cmd": verb, "epoch": -3})) == {
                "ok": False,
                "error": f"{verb} epoch must not be negative",
            }

    @pytest.mark.parametrize(
        "arguments, error",
        [
            ({"epoch": "0"}, "flows epoch must be an integer or null"),
            ({"epoch": True}, "flows epoch must be an integer or null"),
            ({"ids": 7}, "flows ids must be a list of integers"),
            ({"ids": [1, "2"]}, "flows ids must be a list of integers"),
            ({"ids": [1, True]}, "flows ids must be a list of integers"),
            ({"ids": [1.0]}, "flows ids must be a list of integers"),
            ({"ids": [1], "offset": 0}, "flows takes ids or offset/limit, not both"),
            ({"ids": [1], "limit": 5}, "flows takes ids or offset/limit, not both"),
            (
                {"ids": list(range(FLOWS_PAGE_LIMIT + 1))},
                f"flows takes at most {FLOWS_PAGE_LIMIT} ids",
            ),
            ({"offset": -1}, "flows offset must be a non-negative integer"),
            ({"offset": "0"}, "flows offset must be a non-negative integer"),
            ({"limit": None}, "flows limit must be a non-negative integer"),
            ({"limit": 2.0}, "flows limit must be a non-negative integer"),
            ({"limit": False}, "flows limit must be a non-negative integer"),
        ],
    )
    def test_flows_arguments_are_checked(self, analyzer_thread, arguments, error):
        thread = analyzer_thread(ColumnarIngestCore())
        with RawQuery(thread.query_endpoint) as query:
            reply = json.loads(query.ask({"cmd": "flows", **arguments}))
            assert reply == {"ok": False, "error": error}
            # absent and null both mean "the newest epoch"
            assert json.loads(query.ask({"cmd": "flows", "epoch": None}))["ok"] is True
        assert thread.analyzer.stats.flows_queries == 2

    def test_flows_of_an_evicted_epoch_answers_like_report(self, analyzer_thread):
        thread = analyzer_thread(ColumnarIngestCore(retain_reports=1))
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        for epoch in (0, 1):
            client.send_run(epoch, epoch_events(epoch)[:CHUNK])
            client.tick(epoch)
        client.drain()
        client.close()
        wait_finalized(thread.query_endpoint, 1)
        unavailable = reply_line(
            {"ok": False, "error": str(ReportUnavailableError(0, 1, 1))}
        )
        with RawQuery(thread.query_endpoint) as query:
            assert query.ask({"cmd": "report", "epoch": 0}) == unavailable
            assert query.ask({"cmd": "flows", "epoch": 0}) == unavailable
            assert query.ask({"cmd": "flows", "epoch": 0, "ids": [1]}) == unavailable

    def test_flows_queries_and_reply_bytes_are_counted(self, analyzer_thread):
        thread = analyzer_thread(ColumnarIngestCore())
        client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
        client.connect()
        client.send_run(0, epoch_events(0))
        client.drain()
        client.close()
        sent = 0
        with RawQuery(thread.query_endpoint) as query:
            for request in (
                {"cmd": "ping"},
                {"cmd": "report", "epoch": 0},
                {"cmd": "report", "epoch": 0},  # the cached line counts again
                {"cmd": "flows", "epoch": 0, "limit": 9},
                {"cmd": "flows", "epoch": 0, "ids": [3]},
                {"cmd": "flows", "epoch": "x"},
                {"cmd": "nonsense"},
            ):
                sent += len(query.ask(request))
            stats_line = query.ask({"cmd": "stats"})
        served = json.loads(stats_line)["stats"]
        assert served["flows_queries"] == 3
        assert served["query_bytes_sent"] == sent  # its own line comes after
        assert thread.analyzer.stats.query_bytes_sent == sent + len(stats_line)

    def test_describe_names_the_query_version(self, analyzer_thread):
        thread = analyzer_thread(ColumnarIngestCore())
        with FleetQueryClient(thread.query_endpoint) as query:
            assert query.request({"cmd": "describe"})["describe"]["query_version"] == 2


@pytest.mark.parametrize("core_kind", CORE_KINDS)
def test_the_report_line_is_pinned_to_the_dict_oracles_signature(core_kind):
    """The reply's bytes are a function of the evidence, not of the engine or
    of how ``report_to_json`` gets at the votes: assembled here from nothing
    but ``report_signature`` and ``summary()`` of a dict-engine report."""
    events = retraced_events()
    core = make_core(core_kind)
    analyzer = FleetAnalyzer(core, expected_agents=1)
    feed = CoreFeed(core) if core_kind == "columns" else None
    cuts = [0, len(events) - 400, len(events)]
    for view, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        if feed is not None:
            feed.deliver(("chunk", 0, events[lo:hi]))
        else:
            core.service.ingest_batch(events[lo:hi])
        oracle = oracle_report(events[:hi])
        signature = list(report_signature(oracle))
        assert len(signature[1]) > 1 and len(signature[2]) > 10
        causes, noise, failure = signature[3:6]
        signature[3:6] = None, None, None
        document = {
            "epoch": 0,
            "detected_links": signature[1],
            "top_links": signature[2][:10],
            "num_paths_analyzed": signature[6],
            "summary": oracle.summary(),
            "signature": signature,
            "flows": {
                "causes": len(causes),
                "noise": len(noise),
                "failure": len(failure),
            },
        }
        line = analyzer._answer(b'{"cmd": "report", "epoch": 0}')
        assert line == reply_line({"ok": True, "report": document, "view": view})
    core.close()


class TestReplySize:
    def test_the_report_line_is_o_links_not_o_flows(self):
        """The ruler's ``fleet_tcp`` epoch: 40 000 events on ``medium``.  The
        parent's line for it was 1 049 487 bytes."""

        def line_and_flows(events_per_epoch):
            generator = build_generator("medium", "skewed", "none", 3, events_per_epoch)
            core = ServiceIngestCore(Zero07Service(engine="arrays"))
            core.service.ingest_batch(generator.epoch_events(0, tick=True))
            analyzer = FleetAnalyzer(core, expected_agents=1)
            line = analyzer._answer(b'{"cmd": "report", "epoch": 0}')
            document = json.loads(line)["report"]
            return len(line), document["num_paths_analyzed"]

        size, flows = line_and_flows(40_000)
        assert flows == 32_000
        assert size <= 64 * 1024
        doubled, twice_the_flows = line_and_flows(80_000)
        assert twice_the_flows == 64_000
        assert doubled < 1.05 * size
