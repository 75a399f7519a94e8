"""Chaos tests: agent death and severed sockets must not corrupt reports.

Three failure modes against a live analyzer:

* a scripted kill — the agent process dies mid-run without closing its
  socket (``os._exit``), is relaunched, and the finalized reports must be
  bit-identical to an uninterrupted replay on both engines;
* a severed connection at a frame boundary — the client reconnects with
  backoff and redelivers from its acked watermark; nothing is lost or
  double-counted;
* a severed connection mid-frame — the analyzer raises through the
  truncated-frame path (a typed protocol error, never a desync) and a
  fresh delivery still converges bit-identically.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.api.service import Zero07Service
from repro.fleet import protocol
from repro.fleet.agent import KILL_EXIT_CODE, FleetAgentClient
from repro.fleet.analyzer import AnalyzerThread, FleetAnalyzer, ServiceIngestCore
from repro.fleet.protocol import Endpoint, parse_endpoint
from repro.fleet.runner import FleetQueryClient, build_generator, json_signature

EPOCHS = 2
EVENTS_PER_EPOCH = 1_000
SEED = 23


def generator():
    return build_generator("tiny", "skewed", "none", SEED, EVENTS_PER_EPOCH)


def reference_signatures(engine="arrays"):
    service = Zero07Service(engine=engine, retain_reports=EPOCHS)
    gen = generator()
    signatures = []
    for epoch in range(EPOCHS):
        service.ingest_batch(gen.epoch_events(epoch, tick=True))
        signatures.append(json_signature(service.report(epoch)))
    return signatures


def start_thread(core, expected_agents=1):
    analyzer = FleetAnalyzer(
        core, expected_agents=expected_agents, idle_timeout=60.0
    )
    return AnalyzerThread(
        analyzer,
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
    )


def wait_finalized(query_endpoint, last_epoch=EPOCHS - 1, timeout=60.0):
    deadline = time.monotonic() + timeout
    with FleetQueryClient(query_endpoint) as query:
        while True:
            stats = query.request({"cmd": "stats"})
            if stats["last_finalized"] == last_epoch:
                return stats
            assert time.monotonic() < deadline, "analyzer never finalized"
            time.sleep(0.02)


def query_signatures(query_endpoint):
    with FleetQueryClient(query_endpoint) as query:
        return [query.report_signature(epoch) for epoch in range(EPOCHS)]


def _agent_process(endpoint_text, fail_after_events):
    """One whole-workload agent; dies with KILL_EXIT_CODE when armed."""
    gen = generator()
    client = FleetAgentClient(
        "chaos-0",
        parse_endpoint(endpoint_text),
        chunk_events=128,
        fail_after_events=fail_after_events,
        reconnect_seed=5,
        backoff_base=0.01,
    )
    client.connect()
    for epoch in range(EPOCHS):
        client.send_run(epoch, gen.agent_events(epoch, 0, 1))
        client.tick(epoch)
    client.drain()
    client.close()


@pytest.mark.parametrize("engine", ["arrays", "dicts"])
def test_scripted_kill_and_relaunch_is_bit_identical(engine):
    core = ServiceIngestCore(Zero07Service(engine=engine, retain_reports=EPOCHS))
    thread = start_thread(core)
    try:
        victim = multiprocessing.Process(
            target=_agent_process, args=(str(thread.endpoint), 300)
        )
        victim.start()
        victim.join(timeout=60)
        assert victim.exitcode == KILL_EXIT_CODE

        relaunched = multiprocessing.Process(
            target=_agent_process, args=(str(thread.endpoint), None)
        )
        relaunched.start()
        relaunched.join(timeout=60)
        assert relaunched.exitcode == 0

        wait_finalized(thread.query_endpoint)
        assert query_signatures(thread.query_endpoint) == (
            reference_signatures(engine)
        )
        # the relaunch resent the victim's already-admitted prefix: the
        # service must have dropped it, not double-counted.
        stats = thread.analyzer.stats
        assert stats.duplicate_chunks + stats.trimmed_chunks >= 1
    finally:
        thread.stop()


def test_sever_and_reconnect_redelivers_without_loss():
    core = ServiceIngestCore(Zero07Service(retain_reports=EPOCHS))
    thread = start_thread(core)
    try:
        gen = generator()
        client = FleetAgentClient(
            "chaos-0",
            thread.endpoint,
            chunk_events=128,
            reconnect_seed=5,
            backoff_base=0.01,
        )
        client.connect()
        for epoch in range(EPOCHS):
            events = gen.agent_events(epoch, 0, 1)
            half = len(events) // 2
            client.send_run(epoch, events[:half])
            if epoch == 0:
                client.sever()  # yanked cable mid-run
            client.send_run(epoch, events[half:])
            client.tick(epoch)
        client.drain()
        assert client.stats.reconnects >= 1
        assert client.stats.redelivered_chunks >= 1
        client.close()
        wait_finalized(thread.query_endpoint)
        assert query_signatures(thread.query_endpoint) == (
            reference_signatures()
        )
    finally:
        thread.stop()


def test_mid_frame_sever_raises_typed_error_without_desync():
    core = ServiceIngestCore(Zero07Service(retain_reports=EPOCHS))
    thread = start_thread(core)
    try:
        # a ghost connection handshakes, sends half an EVIDENCE frame and
        # vanishes — the analyzer must record a protocol error, not hang or
        # mis-ingest the fragment.
        gen = generator()
        sock = thread.endpoint.connect(timeout=10.0)
        sock.sendall(
            protocol.encode_frame(
                protocol.FRAME_HELLO, protocol.encode_hello("ghost")
            )
        )
        reader = protocol.FrameReader()
        while True:
            data = sock.recv(1 << 16)
            assert data, "analyzer closed during handshake"
            reader.feed(data)
            frames = list(reader.frames())
            if frames:
                assert frames[0][0] == protocol.FRAME_WELCOME
                break
        from repro.api.wire import WireEncoder

        payload = WireEncoder(streams=1).encode_run(
            0, 0, 0, gen.agent_events(0, 0, 1)[:128]
        )
        frame = protocol.encode_frame(protocol.FRAME_EVIDENCE, payload)
        sock.sendall(frame[: len(frame) // 2])
        sock.close()

        deadline = time.monotonic() + 30.0
        while thread.analyzer.stats.protocol_errors < 1:
            assert time.monotonic() < deadline, "truncated frame not flagged"
            time.sleep(0.02)
        # nothing of the half frame may have reached the core.
        assert thread.analyzer.stats.evidence_events == 0

        # a healthy agent still converges bit-identically afterwards.
        client = FleetAgentClient("chaos-0", thread.endpoint, chunk_events=128)
        client.connect()
        for epoch in range(EPOCHS):
            client.send_run(epoch, gen.agent_events(epoch, 0, 1))
            client.tick(epoch)
        client.drain()
        client.close()
        wait_finalized(thread.query_endpoint)
        assert query_signatures(thread.query_endpoint) == (
            reference_signatures()
        )
    finally:
        thread.stop()


def test_redelivery_after_acked_prefix_is_not_double_counted():
    """Sever after everything was acked: the replay must be fully trimmed."""
    core = ServiceIngestCore(Zero07Service(retain_reports=EPOCHS))
    thread = start_thread(core)
    try:
        gen = generator()
        client = FleetAgentClient(
            "chaos-0",
            thread.endpoint,
            chunk_events=128,
            reconnect_seed=5,
            backoff_base=0.01,
        )
        client.connect()
        events = gen.agent_events(0, 0, 1)
        client.send_run(0, events[:500])
        client.drain()  # every chunk acked; retention is empty
        client.sever()
        # the next chunk is retained, fails to send, and rides the
        # reconnect replay — but the 500 already-acked events must not.
        client.send_run(0, events[500:])
        client.tick(0)
        client.send_run(1, gen.agent_events(1, 0, 1))
        client.tick(1)
        client.drain()
        assert 0 < client.stats.redelivered_events <= client.chunk_events
        client.close()
        assert thread.analyzer.stats.duplicate_chunks == 0
        assert thread.analyzer.stats.trimmed_chunks == 0
        wait_finalized(thread.query_endpoint)
        assert query_signatures(thread.query_endpoint) == (
            reference_signatures()
        )
    finally:
        thread.stop()
