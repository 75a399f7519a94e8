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

import numpy as np
import pytest

from repro.api.events import EpochTick
from repro.api.service import ReportUnavailableError, Zero07Service
from repro.api.sharded import ShardedService
from repro.api.wire import LinkRemap, WireDecoder, WireEncoder
from repro.fleet.agent import FleetAgentClient
from repro.fleet.analyzer import (
    AnalyzerThread,
    ColumnarIngestCore,
    FleetAnalyzer,
    ServiceIngestCore,
    report_to_json,
)
from repro.fleet.protocol import Endpoint
from repro.fleet.runner import FleetQueryClient, build_generator
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
        for sent in (400, 800, 1200):
            client.send_run(0, events[sent - 400 : sent])
            client.drain()  # every chunk acked, so every chunk is in the core
            hits = stats.report_view_hits
            line = query.ask(request)
            assert stats.report_view_hits == hits
            assert line != previous
            reference = Zero07Service(engine="arrays")
            reference.ingest_batch(events[:sent])
            assert line == reply_line(
                {"ok": True, "report": report_to_json(reference.report(0))}
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
    assert thread.analyzer.stats.report_queries == 0


@pytest.mark.parametrize("core_kind", CORE_KINDS)
def test_polling_never_seen_epochs_allocates_nothing(analyzer_thread, core_kind):
    core = make_core(core_kind)
    thread = analyzer_thread(core)
    client = FleetAgentClient("v-0", thread.endpoint, chunk_events=CHUNK)
    client.connect()
    client.send_run(3, epoch_events(3)[:CHUNK])
    client.drain()
    with FleetQueryClient(thread.query_endpoint) as query:
        for epoch in list(range(4, 504)) + list(range(-500, 0)):
            response = query.request({"cmd": "report", "epoch": epoch})
            assert response["report"]["num_paths_analyzed"] == 0
    client.close()
    assert thread.analyzer._report_lines == {}
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
