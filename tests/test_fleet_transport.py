"""Socket-transport equivalence tests for the fleet analyzer.

N agent clients stream interleaved slices of a deterministic workload at an
in-process analyzer over real TCP/Unix sockets; every final report must be
bit-identical to a single-process ``ingest_batch`` replay — across both
ingest cores, both engines, and the sharded service.  Backpressure,
heartbeats, mid-epoch queries and version rejection ride the same harness.
"""

from __future__ import annotations

import struct
import time
from dataclasses import replace

import pytest

from repro.api.events import EpochTick, PathEvidence, RetransmissionEvidence
from repro.api.service import Zero07Service
from repro.api.sharded import ShardedService
from repro.fleet import protocol
from repro.fleet.agent import FleetAgentClient
from repro.fleet.analyzer import (
    AnalyzerThread,
    ColumnarIngestCore,
    FleetAnalyzer,
    ServiceIngestCore,
)
from repro.fleet.protocol import Endpoint, FrameReader
from repro.fleet.runner import FleetQueryClient, build_generator, json_signature

EPOCHS = 2
EVENTS_PER_EPOCH = 1_200
SEED = 11
AGENTS = 2


def generator():
    return build_generator("tiny", "skewed", "none", SEED, EVENTS_PER_EPOCH)


def generated_stream(epoch):
    return generator().epoch_events(epoch, tick=False)


def retraced_stream(epoch):
    """The generator's epoch, then some of its flows traced a second time —
    so a flow is traced in two agents' slices — and counted again after
    that; the generator's own count updates already cross slice boundaries.
    (Flows counted near the end are left alone: a chunk that counts a flow
    and then traces it again is per-event territory for every core.)"""
    events = generated_stream(epoch)
    counted_late = {
        event.flow_id
        for event in events[-300:]
        if isinstance(event, RetransmissionEvidence)
    }
    paths = [
        event.path
        for event in events
        if isinstance(event, PathEvidence) and event.path.flow_id not in counted_late
    ]
    for path in paths[::40]:
        events.append(
            PathEvidence(epoch, len(events), replace(path, retransmissions=1))
        )
        events.append(RetransmissionEvidence(epoch, path.flow_id, 2, len(events)))
    return events


def reference_signatures(epochs=EPOCHS, stream=generated_stream):
    """Signatures of the uninterrupted single-process replay."""
    service = Zero07Service(engine="arrays", retain_reports=epochs)
    signatures = []
    for epoch in range(epochs):
        service.ingest_batch(stream(epoch) + [EpochTick(epoch)])
        signatures.append(json_signature(service.report(epoch)))
    return signatures


def deliver_slices(endpoint, agents, arrival, overlap=0, chunk_events=128):
    """Each agent sends its contiguous slice of every epoch of the retraced
    stream (each but the first starting ``overlap`` events early).

    ``streamed``: whole slices, arriving as the sockets deliver them.
    Otherwise one chunk at a time, each acked before the next is sent, so
    chunks arrive in the order sent: ``in-order`` (agent 0's slice, then
    agent 1's, ...), ``reversed`` (the last agent's slice first) or
    ``round-robin`` (every agent's first chunk, then every agent's second).
    """
    clients = [
        FleetAgentClient(f"t-{index}", endpoint, chunk_events=chunk_events)
        for index in range(agents)
    ]
    for client in clients:
        client.connect()
    for epoch in range(EPOCHS):
        events = retraced_stream(epoch)
        cuts = [index * len(events) // agents for index in range(agents + 1)]
        parts = [
            events[max(0, cuts[index] - overlap) : cuts[index + 1]]
            for index in range(agents)
        ]
        if arrival == "streamed":
            for client, part in zip(clients, parts):
                client.send_run(epoch, part)
        else:
            sends = [
                (index, lo)
                for index in range(agents)
                for lo in range(0, len(parts[index]), chunk_events)
            ]
            if arrival == "reversed":
                sends.sort(key=lambda send: -send[0])
            elif arrival == "round-robin":
                sends.sort(key=lambda send: send[1])
            for index, lo in sends:
                clients[index].send_run(epoch, parts[index][lo : lo + chunk_events])
                clients[index].drain()
        for client in clients:
            client.tick(epoch)
    for client in clients:
        client.drain()
        client.close()


def send_all_slices(endpoint, agents=AGENTS, epochs=EPOCHS, **client_kw):
    """Each agent streams its contiguous slice of every epoch, then drains."""
    gen = generator()
    clients = [
        FleetAgentClient(
            f"t-{index}", endpoint, chunk_events=256, **client_kw
        )
        for index in range(agents)
    ]
    for client in clients:
        client.connect()
    for epoch in range(epochs):
        for index, client in enumerate(clients):
            client.send_run(epoch, gen.agent_events(epoch, index, agents))
        for client in clients:
            client.tick(epoch)
    for client in clients:
        client.drain()
        client.close()
    return clients


def wait_finalized(query_endpoint, last_epoch, timeout=30.0):
    deadline = time.monotonic() + timeout
    with FleetQueryClient(query_endpoint) as query:
        while True:
            stats = query.request({"cmd": "stats"})
            if stats["last_finalized"] == last_epoch:
                return stats
            assert time.monotonic() < deadline, "analyzer never finalized"
            time.sleep(0.02)


def query_signatures(query_endpoint, epochs=EPOCHS):
    with FleetQueryClient(query_endpoint) as query:
        return [query.report_signature(epoch) for epoch in range(epochs)]


def make_core(kind):
    if kind == "columns":
        return ColumnarIngestCore(retain_reports=EPOCHS)
    if kind == "events-arrays":
        return ServiceIngestCore(
            Zero07Service(engine="arrays", retain_reports=EPOCHS)
        )
    if kind == "events-dicts":
        return ServiceIngestCore(
            Zero07Service(engine="dicts", retain_reports=EPOCHS)
        )
    if kind == "sharded":
        return ServiceIngestCore(
            ShardedService(num_shards=2, retain_reports=EPOCHS)
        )
    raise AssertionError(kind)


@pytest.fixture
def tcp_thread():
    def start(core, expected_agents=AGENTS, **analyzer_kw):
        analyzer = FleetAnalyzer(
            core, expected_agents=expected_agents, idle_timeout=60.0, **analyzer_kw
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


@pytest.mark.parametrize(
    "core_kind, agents, arrival",
    [
        (core_kind, 2, "streamed")
        for core_kind in ("columns", "events-arrays", "events-dicts", "sharded")
    ]
    + [
        (core_kind, 3, arrival)
        for core_kind in ("columns", "events-arrays")
        for arrival in ("in-order", "reversed", "round-robin")
    ],
)
def test_tcp_reports_bit_identical_to_replay(tcp_thread, core_kind, agents, arrival):
    thread = tcp_thread(make_core(core_kind), expected_agents=agents)
    deliver_slices(thread.endpoint, agents, arrival)
    served = wait_finalized(thread.query_endpoint, EPOCHS - 1)
    # contiguous slices never leave the vector path, whatever the core and
    # whichever slice arrives first: chunks ahead of the flushed prefix fold
    # into side lanes (columns) or wait their turn (events), nothing replays
    counter = "replayed_epochs" if core_kind == "columns" else "fallback_events"
    assert served[counter] == 0
    reference = reference_signatures(stream=retraced_stream)
    assert query_signatures(thread.query_endpoint) == reference
    stats = thread.analyzer.stats
    assert stats.protocol_errors == 0
    assert stats.chunks_flushed > 0
    assert stats.duplicate_chunks == stats.trimmed_chunks == 0
    assert stats.evidence_events == sum(
        len(retraced_stream(epoch)) for epoch in range(EPOCHS)
    )


@pytest.mark.parametrize("core_kind", ["columns", "events-arrays"])
def test_overlapping_slices_stay_bit_identical(tcp_thread, core_kind):
    # the tail agent's slice starts 200 events inside the head agent's and
    # arrives first: a side lane cannot be trimmed, so the columns core
    # replays the epoch; the events core trims chunk by chunk as ever.
    core = make_core(core_kind)
    thread = tcp_thread(core)
    deliver_slices(thread.endpoint, AGENTS, "reversed", overlap=200)
    wait_finalized(thread.query_endpoint, EPOCHS - 1)
    reference = reference_signatures(stream=retraced_stream)
    assert query_signatures(thread.query_endpoint) == reference
    if core_kind == "columns":
        assert core.replayed_epochs >= 1
    else:
        assert thread.analyzer.stats.trimmed_chunks >= 1


@pytest.mark.parametrize("core_kind", ["columns", "events-arrays"])
def test_report_after_a_sequence_gap_closes_covers_what_was_ahead(
    tcp_thread, core_kind
):
    thread = tcp_thread(make_core(core_kind))
    events = generated_stream(0)
    clients = {
        name: FleetAgentClient(name, thread.endpoint, chunk_events=256)
        for name in ("t-0", "t-1", "again")
    }
    for client in clients.values():
        client.connect()

    def send(name, lo, hi):
        clients[name].send_run(0, events[lo:hi])
        clients[name].drain()

    def signature():
        with FleetQueryClient(thread.query_endpoint) as query:
            return query.report_signature(0)

    def replay(upto):
        service = Zero07Service(engine="arrays")
        service.ingest_batch(events[:upto])
        return json_signature(service.report(0))

    send("t-1", 600, 900)  # ahead of a gap: not in any report yet
    assert signature() == replay(0)
    send("t-0", 0, 600)  # the gap closes: no tick needed to see both
    assert signature() == replay(900)
    stats = thread.analyzer.stats
    assert (stats.duplicate_chunks, stats.trimmed_chunks) == (0, 0)
    send("again", 600, 856)  # the tail's first chunk once more
    assert (stats.duplicate_chunks, stats.trimmed_chunks) == (1, 0)
    send("again", 800, 1000)  # half behind the watermark
    assert (stats.duplicate_chunks, stats.trimmed_chunks) == (1, 1)
    assert signature() == replay(1000)
    send("t-1", 1000, len(events))
    for epoch in range(EPOCHS):
        if epoch:
            clients["t-0"].send_run(epoch, generated_stream(epoch))
        for name in ("t-0", "t-1"):
            clients[name].tick(epoch)
    for client in clients.values():
        client.drain()
        client.close()
    served = wait_finalized(thread.query_endpoint, EPOCHS - 1)
    assert query_signatures(thread.query_endpoint) == reference_signatures()
    if core_kind == "columns":
        assert served["replayed_epochs"] == 0


@pytest.mark.parametrize("core_kind", ["columns", "events-arrays"])
def test_lanes_behind_a_gap_join_at_the_barrier_in_any_order(tcp_thread, core_kind):
    """Two stretches ahead of a prefix that never arrives, the later one
    first: the tick barrier joins both lanes, in the order they were opened,
    and the report is a replay of what was delivered — without a replay."""
    core = make_core(core_kind)
    thread = tcp_thread(core)
    paths = [e for e in generated_stream(0) if isinstance(e, PathEvidence)]
    clients = [
        FleetAgentClient(f"t-{index}", thread.endpoint, chunk_events=64)
        for index in range(AGENTS)
    ]
    for client, part in zip(clients, (paths[300:450], paths[100:200])):
        client.connect()
        client.send_run(0, part)
        client.drain()
    for client in clients:
        client.tick(0)
        client.drain()
        client.close()
    served = wait_finalized(thread.query_endpoint, 0)
    replay = Zero07Service(engine="arrays")
    replay.ingest_batch(paths[100:200] + paths[300:450])
    with FleetQueryClient(thread.query_endpoint) as query:
        assert query.report_signature(0) == json_signature(replay.report(0))
    counter = "replayed_epochs" if core_kind == "columns" else "fallback_events"
    assert served[counter] == 0


def test_unix_socket_reports_bit_identical_to_replay(tmp_path):
    analyzer = FleetAnalyzer(
        ColumnarIngestCore(retain_reports=EPOCHS),
        expected_agents=AGENTS,
        idle_timeout=60.0,
    )
    thread = AnalyzerThread(
        analyzer,
        Endpoint(kind="unix", path=str(tmp_path / "evidence.sock")),
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
    )
    try:
        send_all_slices(thread.endpoint)
        wait_finalized(thread.query_endpoint, EPOCHS - 1)
        assert (
            query_signatures(thread.query_endpoint) == reference_signatures()
        )
    finally:
        thread.stop()


def test_columnar_core_never_fell_back_to_replay(tcp_thread):
    core = ColumnarIngestCore(retain_reports=EPOCHS)
    thread = tcp_thread(core)
    send_all_slices(thread.endpoint)
    wait_finalized(thread.query_endpoint, EPOCHS - 1)
    assert core.replayed_epochs == 0


def test_backpressure_engages_and_run_stays_bit_identical(tcp_thread):
    # a deliberately tiny staging bound: the second agent's out-of-order
    # slice must push staged bytes past it, defer acks, and still converge.
    thread = tcp_thread(
        ColumnarIngestCore(retain_reports=EPOCHS), stage_limit_bytes=4096
    )
    gen = generator()
    tail = FleetAgentClient("t-1", thread.endpoint, chunk_events=256)
    head = FleetAgentClient("t-0", thread.endpoint, chunk_events=256)
    tail.connect()
    head.connect()
    for epoch in range(EPOCHS):
        # the tail slice arrives first, so nothing can flush until the
        # head slice closes the sequence gap.
        tail.send_run(epoch, gen.agent_events(epoch, 1, AGENTS))
        head.send_run(epoch, gen.agent_events(epoch, 0, AGENTS))
        tail.tick(epoch)
        head.tick(epoch)
    for client in (tail, head):
        client.drain()
        client.close()
    stats = wait_finalized(thread.query_endpoint, EPOCHS - 1)
    assert stats["stats"]["backpressure_engagements"] >= 1
    assert stats["stats"]["acks_deferred"] >= 1
    assert query_signatures(thread.query_endpoint) == reference_signatures()


def test_heartbeat_is_echoed(tcp_thread):
    thread = tcp_thread(ColumnarIngestCore())
    client = FleetAgentClient("t-0", thread.endpoint)
    client.connect()
    client.heartbeat()
    deadline = time.monotonic() + 10.0
    with FleetQueryClient(thread.query_endpoint) as query:
        while True:
            stats = query.request({"cmd": "stats"})
            if stats["stats"]["heartbeats"] >= 1:
                break
            assert time.monotonic() < deadline
            time.sleep(0.02)
    client.close()


def test_mid_epoch_report_matches_partial_replay(tcp_thread):
    thread = tcp_thread(ColumnarIngestCore())
    gen = generator()
    events = gen.epoch_events(0, tick=False)
    partial = events[:700]
    client = FleetAgentClient("t-0", thread.endpoint, chunk_events=128)
    client.connect()
    client.send_run(0, partial)
    client.drain()
    with FleetQueryClient(thread.query_endpoint) as query:
        signature = query.report_signature(0)
    client.close()
    reference = Zero07Service(engine="arrays")
    reference.ingest_batch(partial)
    assert signature == json_signature(reference.report(0))


def test_version_mismatch_is_rejected_naming_both_versions(tcp_thread):
    thread = tcp_thread(ColumnarIngestCore())
    sock = thread.endpoint.connect(timeout=10.0)
    try:
        body = b'{"agent_id":"old","epoch_watermark":-1}'
        payload = struct.pack("<4sH", protocol.FLEET_MAGIC, 99) + body
        sock.sendall(protocol.encode_frame(protocol.FRAME_HELLO, payload))
        reader = FrameReader()
        frames = []
        while not frames:
            data = sock.recv(1 << 16)
            if not data:
                break
            reader.feed(data)
            frames.extend(reader.frames())
        assert frames, "analyzer closed without an ERROR frame"
        frame_type, payload = frames[0]
        assert frame_type == protocol.FRAME_ERROR
        error = protocol.decode_error(payload)
        assert error.code == "version-mismatch"
        assert "v99" in str(error)
        assert f"v{protocol.FLEET_PROTOCOL_VERSION}" in str(error)
    finally:
        sock.close()
    deadline = time.monotonic() + 10.0
    while thread.analyzer.stats.protocol_errors < 1:
        assert time.monotonic() < deadline
        time.sleep(0.02)


def test_a_damaged_evidence_frame_is_one_wire_error(tcp_thread):
    """A header that claims more events than its frame carries is a wire
    protocol error: counted once, answered with an ERROR frame ``wire``."""
    from repro.api.wire import _HEADER, WireEncoder

    thread = tcp_thread(ColumnarIngestCore())
    sock = thread.endpoint.connect(timeout=10.0)
    try:
        hello = protocol.encode_hello("damaged")
        sock.sendall(protocol.encode_frame(protocol.FRAME_HELLO, hello))
        payload = WireEncoder().encode_run(0, 0, 0, generated_stream(0)[:64])
        fields = list(_HEADER.unpack_from(payload))
        fields[3] += 1  # n_events
        damaged = _HEADER.pack(*fields) + payload[_HEADER.size :]
        sock.sendall(protocol.encode_frame(protocol.FRAME_EVIDENCE, damaged))
        reader = FrameReader()
        frames = []
        while not any(kind == protocol.FRAME_ERROR for kind, _ in frames):
            data = sock.recv(1 << 16)
            if not data:
                break
            reader.feed(data)
            frames.extend(reader.frames())
        errors = [body for kind, body in frames if kind == protocol.FRAME_ERROR]
        assert errors, "analyzer closed without an ERROR frame"
        assert protocol.decode_error(errors[0]).code == "wire"
    finally:
        sock.close()
    deadline = time.monotonic() + 10.0
    while thread.analyzer.stats.protocol_errors < 1:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    assert thread.analyzer.stats.protocol_errors == 1


def test_describe_reports_protocol_version_and_core(tcp_thread):
    thread = tcp_thread(ColumnarIngestCore())
    with FleetQueryClient(thread.query_endpoint) as query:
        description = query.request({"cmd": "describe"})["describe"]
    assert description["protocol_version"] == protocol.FLEET_PROTOCOL_VERSION
    assert description["mode"] == "columns"
    assert description["expected_agents"] == AGENTS
