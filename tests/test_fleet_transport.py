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

import pytest

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


def reference_signatures(epochs=EPOCHS):
    """Signatures of the uninterrupted single-process replay."""
    service = Zero07Service(engine="arrays", retain_reports=epochs)
    gen = generator()
    signatures = []
    for epoch in range(epochs):
        service.ingest_batch(gen.epoch_events(epoch, tick=True))
        signatures.append(json_signature(service.report(epoch)))
    return signatures


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
    def start(core, **analyzer_kw):
        analyzer = FleetAnalyzer(
            core, expected_agents=AGENTS, idle_timeout=60.0, **analyzer_kw
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
    "core_kind", ["columns", "events-arrays", "events-dicts", "sharded"]
)
def test_tcp_reports_bit_identical_to_replay(tcp_thread, core_kind):
    thread = tcp_thread(make_core(core_kind))
    send_all_slices(thread.endpoint)
    served = wait_finalized(thread.query_endpoint, EPOCHS - 1)
    # in-order chunks never leave the vector path, whatever the core
    counter = "replayed_epochs" if core_kind == "columns" else "fallback_events"
    assert served[counter] == 0
    assert query_signatures(thread.query_endpoint) == reference_signatures()
    stats = thread.analyzer.stats
    assert stats.protocol_errors == 0
    assert stats.chunks_flushed > 0
    assert stats.evidence_events == EPOCHS * EVENTS_PER_EPOCH


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


def test_describe_reports_protocol_version_and_core(tcp_thread):
    thread = tcp_thread(ColumnarIngestCore())
    with FleetQueryClient(thread.query_endpoint) as query:
        description = query.request({"cmd": "describe"})["describe"]
    assert description["protocol_version"] == protocol.FLEET_PROTOCOL_VERSION
    assert description["mode"] == "columns"
    assert description["expected_agents"] == AGENTS
