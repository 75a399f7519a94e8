"""Socket-ingest benchmark: the ``fleet`` block of BENCH_service.json v4.

Measures what the distributed deployment adds on top of the in-process
service numbers:

* **transport throughput** — N agent processes pre-encode their workload
  slices into wire frames, hit a barrier, then stream at one analyzer over
  TCP and Unix sockets (``columns`` ingest core); the clock runs from
  barrier release to the last epoch's finalize, so the number is aggregate
  analyzer ingest with framing, flow control and finalize included —
  producer-side encode is excluded in every lane.  An ``inproc`` lane feeds
  the same pre-encoded chunks straight into the same core without sockets —
  the no-network upper bound the socket lanes are judged against.
* **backpressure** — a staged-delivery probe (one agent sends the tail of
  an epoch before another sends the head, against a deliberately small
  staging bound) counts deferred-ack engagements, proving the credit
  machinery actually engages and releases.
* **reconnect recovery** — an agent is severed mid-epoch and the time from
  sever to fully re-acked redelivery is measured; the run's reports must
  stay bit-identical to an uninterrupted replay (a correctness bar the
  schema enforces, not just a perf number).
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.service import Zero07Service
from repro.api.wire import LinkRemap, WireDecoder, WireEncoder
from repro.fleet.agent import FleetAgentClient
from repro.fleet.analyzer import AnalyzerThread, ColumnarIngestCore, FleetAnalyzer
from repro.fleet.protocol import Endpoint
from repro.fleet.runner import FleetQueryClient, build_generator, json_signature


@dataclass
class FleetBenchConfig:
    """Shape of the fleet benchmark workload (deterministic per seed)."""

    fabric: str = "medium"
    events: int = 400_000
    epochs: int = 4
    agents: int = 4
    shards: int = 1
    mode: str = "columns"
    profile: str = "skewed"
    timeline: str = "none"
    seed: int = 0
    chunk_events: int = 8192
    transports: Tuple[str, ...] = ("tcp", "unix", "inproc")

    def __post_init__(self) -> None:
        if self.events < 1 or self.epochs < 1 or self.events % self.epochs:
            raise ValueError("events must be a positive multiple of epochs")
        if self.agents < 1:
            raise ValueError("agents must be >= 1")
        unknown = set(self.transports) - {"tcp", "unix", "inproc"}
        if not self.transports or unknown:
            raise ValueError(
                f"transports must be tcp/unix/inproc, got {self.transports!r}"
            )

    @property
    def events_per_epoch(self) -> int:
        """Evidence events per epoch."""
        return self.events // self.epochs


def _generator(config: FleetBenchConfig):
    return build_generator(
        config.fabric,
        config.profile,
        config.timeline,
        config.seed,
        config.events_per_epoch,
    )


def _sender_process(
    config_fields: Dict,
    index: int,
    endpoint_text: str,
    barrier,
) -> None:
    """One bench agent: pre-encode real wire frames, sync, stream.

    Producer-side encode runs *before* the barrier (each sender has its
    whole frame sequence in memory when the clock starts), mirroring the
    inproc lane — all three lanes measure analyzer ingest, and the socket
    lanes add transport, framing and flow control on top.  The stream is
    protocol-faithful: HELLO/WELCOME handshake, the per-connection credit
    window honored against cumulative ACK bytes, ticks after each epoch,
    BYE at the end.
    """
    from repro.fleet import protocol
    from repro.fleet.protocol import FrameReader, parse_endpoint

    config = FleetBenchConfig(**config_fields)
    generator = _generator(config)
    encoder = WireEncoder(streams=1)
    #: (frame bytes, evidence payload length) — credit counts payload bytes.
    frames: List[Tuple[bytes, int]] = []
    for epoch in range(config.epochs):
        events = generator.agent_events(epoch, index, config.agents)
        for lo in range(0, len(events), config.chunk_events):
            payload = encoder.encode_run(
                0, 0, epoch, events[lo : lo + config.chunk_events]
            )
            frame = protocol.encode_frame(protocol.FRAME_EVIDENCE, payload)
            frames.append((frame, len(payload)))
        frames.append(
            (
                protocol.encode_frame(
                    protocol.FRAME_TICK, protocol.encode_tick(epoch)
                ),
                0,
            )
        )

    sock = parse_endpoint(endpoint_text).connect(timeout=60.0)
    reader = FrameReader()

    def read_frame() -> Tuple[int, bytes]:
        while True:
            for frame in reader.frames():
                return frame
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("analyzer closed mid-bench")
            reader.feed(data)

    try:
        sock.sendall(
            protocol.encode_frame(
                protocol.FRAME_HELLO,
                protocol.encode_hello(f"bench-{index}"),
            )
        )
        frame_type, payload = read_frame()
        if frame_type != protocol.FRAME_WELCOME:
            raise ConnectionError(f"expected WELCOME, got type {frame_type}")
        credit = protocol.decode_welcome(payload)["credit_bytes"]
        barrier.wait()  # every sender is ready; the coordinator starts the clock
        sent = acked = 0
        for frame, nbytes in frames:
            while sent + nbytes - acked > credit:
                frame_type, payload = read_frame()
                if frame_type == protocol.FRAME_ACK:
                    acked = protocol.decode_ack(payload)[2]
            sock.sendall(frame)
            sent += nbytes
        sock.sendall(protocol.encode_frame(protocol.FRAME_BYE))
        # drain acks until the analyzer answers BYE with a close; exiting
        # early would reset the connection under the last frames.
        try:
            while True:
                read_frame()
        except ConnectionError:
            pass
    finally:
        sock.close()


def _measure_socket(
    config: FleetBenchConfig,
    kind: str,
    progress: Optional[Callable[[str], None]],
) -> Dict:
    with tempfile.TemporaryDirectory(prefix="fleet-bench-") as tmp:
        if kind == "tcp":
            evidence = Endpoint(kind="tcp", host="127.0.0.1", port=0)
        else:
            evidence = Endpoint(kind="unix", path=str(Path(tmp) / "ev.sock"))
        query = Endpoint(kind="tcp", host="127.0.0.1", port=0)
        analyzer = FleetAnalyzer(
            ColumnarIngestCore(retain_reports=config.epochs),
            expected_agents=config.agents,
            idle_timeout=120.0,
        )
        thread = AnalyzerThread(analyzer, evidence, query)
        barrier = multiprocessing.Barrier(config.agents + 1)
        fields = dict(config.__dict__)
        processes = [
            multiprocessing.Process(
                target=_sender_process,
                args=(fields, index, str(thread.endpoint), barrier),
            )
            for index in range(config.agents)
        ]
        for process in processes:
            process.start()
        try:
            barrier.wait(timeout=600)
            started = time.perf_counter()
            with FleetQueryClient(thread.query_endpoint, timeout=60.0) as client:
                while True:
                    stats = client.request({"cmd": "stats"})
                    if stats["last_finalized"] == config.epochs - 1:
                        break
                    time.sleep(0.01)
                elapsed = time.perf_counter() - started
                client.request({"cmd": "shutdown"})
            for process in processes:
                process.join(timeout=60)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join()
            thread.stop()
    result = {
        "events": config.events,
        "seconds": elapsed,
        "events_per_sec": config.events / elapsed,
    }
    if progress is not None:
        progress(
            f"fleet {kind}: {config.events} events over {config.agents} "
            f"agent(s) in {elapsed:.2f}s "
            f"({result['events_per_sec']:,.0f} ev/s)"
        )
    return result


def _measure_inproc(
    config: FleetBenchConfig, progress: Optional[Callable[[str], None]]
) -> Dict:
    """The no-network upper bound: pre-encoded chunks into the same core."""
    generator = _generator(config)
    encoder = WireEncoder(streams=1)
    chunks: List[Tuple[int, bytes]] = []
    for epoch in range(config.epochs):
        events = generator.epoch_events(epoch, tick=False)
        for lo in range(0, len(events), config.chunk_events):
            run = events[lo : lo + config.chunk_events]
            chunks.append((epoch, encoder.encode_run(0, 0, epoch, run)))
    core = ColumnarIngestCore(retain_reports=config.epochs)
    decoder = WireDecoder()
    remap = LinkRemap(decoder, core._link_index)
    started = time.perf_counter()
    current = 0
    for epoch, payload in chunks:
        if epoch != current:
            core.tick(current)
            current = epoch
        core.append_chunk(decoder.decode_columns(payload), remap)
    core.tick(current)
    elapsed = time.perf_counter() - started
    result = {
        "events": config.events,
        "seconds": elapsed,
        "events_per_sec": config.events / elapsed,
    }
    if progress is not None:
        progress(
            f"fleet inproc: {config.events} events in {elapsed:.2f}s "
            f"({result['events_per_sec']:,.0f} ev/s)"
        )
    return result


def _measure_backpressure(
    config: FleetBenchConfig, progress: Optional[Callable[[str], None]]
) -> int:
    """Force staged-delivery growth past a small bound; count engagements."""
    generator = build_generator("tiny", config.profile, "none", config.seed, 20_000)
    events = generator.epoch_events(0, tick=False)
    half = len(events) // 2
    analyzer = FleetAnalyzer(
        ColumnarIngestCore(retain_reports=2),
        expected_agents=2,
        stage_limit_bytes=64 * 1024,
    )
    thread = AnalyzerThread(
        analyzer,
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
    )
    try:
        tail = FleetAgentClient("bp-tail", thread.endpoint, chunk_events=1024)
        head = FleetAgentClient("bp-head", thread.endpoint, chunk_events=1024)
        tail.connect()
        head.connect()
        # the tail arrives first: nothing can flush, staging grows past the
        # bound, acks defer.  The head then closes the gap and releases it.
        tail.send_run(0, events[half:])
        head.send_run(0, events[:half])
        for client in (head, tail):
            client.tick(0)
        for client in (head, tail):
            client.drain()
            client.close()
        with FleetQueryClient(thread.query_endpoint) as query:
            stats = query.request({"cmd": "stats"})["stats"]
            query.request({"cmd": "shutdown"})
        engagements = int(stats["backpressure_engagements"])
    finally:
        thread.stop()
    if progress is not None:
        progress(f"fleet backpressure probe: {engagements} engagement(s)")
    return engagements


def _measure_reconnect(
    config: FleetBenchConfig, progress: Optional[Callable[[str], None]]
) -> Dict:
    """Sever an agent mid-epoch; time the redelivery back to fully-acked."""
    generator = build_generator("tiny", config.profile, "none", config.seed, 20_000)
    epochs = 2
    analyzer = FleetAnalyzer(
        ColumnarIngestCore(retain_reports=epochs), expected_agents=1
    )
    thread = AnalyzerThread(
        analyzer,
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
        Endpoint(kind="tcp", host="127.0.0.1", port=0),
    )
    try:
        client = FleetAgentClient(
            "rc-0", thread.endpoint, chunk_events=1024, reconnect_seed=1,
            backoff_base=0.01,
        )
        client.connect()
        signatures = []
        for epoch in range(epochs):
            events = generator.epoch_events(epoch, tick=False)
            half = len(events) // 2
            client.send_run(epoch, events[:half])
            if epoch == 0:
                client.sever()
                severed_at = time.perf_counter()
                client.send_run(epoch, events[half:])  # reconnect fires here
                client.drain()
                recovery = time.perf_counter() - severed_at
            else:
                client.send_run(epoch, events[half:])
            client.tick(epoch)
        client.drain()
        redelivered = client.stats.redelivered_events
        client.close()
        with FleetQueryClient(thread.query_endpoint) as query:
            for epoch in range(epochs):
                signatures.append(query.report_signature(epoch))
            query.request({"cmd": "shutdown"})
    finally:
        thread.stop()
    reference = Zero07Service(engine="arrays", retain_reports=epochs)
    for epoch in range(epochs):
        reference.ingest_batch(generator.epoch_events(epoch, tick=True))
    identical = all(
        signatures[epoch] == json_signature(reference.report(epoch))
        for epoch in range(epochs)
    )
    if progress is not None:
        progress(
            f"fleet reconnect: recovered in {recovery:.3f}s, "
            f"{redelivered} event(s) redelivered, "
            f"bit_identical={identical}"
        )
    return {
        "recovery_seconds": recovery,
        "redelivered_events": redelivered,
        "bit_identical": identical,
    }


def run_fleet_bench(
    config: Optional[FleetBenchConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Produce the v4 ``fleet`` block (schema-shaped, ready to embed)."""
    config = config if config is not None else FleetBenchConfig()
    transports: Dict[str, Dict] = {}
    for kind in config.transports:
        if kind == "inproc":
            transports[kind] = _measure_inproc(config, progress)
        else:
            transports[kind] = _measure_socket(config, kind, progress)
    return {
        "fabric": config.fabric,
        "events": config.events,
        "epochs": config.epochs,
        "agents": config.agents,
        "shards": config.shards,
        "mode": config.mode,
        "transports": transports,
        "backpressure_engagements": _measure_backpressure(config, progress),
        "reconnect": _measure_reconnect(config, progress),
    }
