"""``fleet_tcp``: the paper's deployment shape, over loopback TCP.

A fleet analyzer is launched per pass as a real process —
``python -m repro.cli fleet analyzer --mode columns --num-agents 2`` — and
the workload process plays two agents: it pre-encodes each agent's contiguous
half of every epoch (``medium`` fabric, hot-ToR profile, ``flap`` timeline)
into ``WireEncoder``/``protocol.encode_frame`` frames of 8 192 events in
set-up, then drives two protocol-faithful connections (HELLO/WELCOME, credit
window honoured against cumulative ACK bytes, TICK per epoch, BYE before the
socket is shut down) from **one sender thread** (the main one), while **one
watcher thread** polls the query socket every 2 ms and fetches each epoch's
report JSON the moment it is finalized.  Loopback is the host's, not a real
link.

Launching the analyzer costs about as much as streaming the whole stream, so
one **live pass** runs three stages against one analyzer, and the window is
spent in rounds of (live pass, checkpoint cycle):

* **saturating stage** (all epochs but the last two) — send as fast as
  credit allows → ``sustained_events_per_s`` (first byte sent → the stage's
  last report JSON fetched);
* **paced stage** (the last epoch but one) — open loop at a fixed
  150 000 ev/s (each agent emits its half at half the rate; every chunk is
  due when its last event would have been produced, the ticks when the epoch
  ends) → ``finalize_p50_s`` from *tick due-time* to report JSON fetched.
  At saturation "finalize lag" would only measure how much evidence is in
  flight;
* **query stage** (the last epoch) — chunks are sent one at a time; after
  each agent's first and last chunk the chunk is awaited until its ACK (the
  analyzer acks after the chunk is folded), then a cold and a repeated
  ``report`` query go over the query socket;
* a **checkpoint cycle** — the analyzer-side state checkpoints "through the
  existing ``Checkpoint`` container" (API.md): the first two wire chunks are
  decoded into an events-mode ``ServiceIngestCore`` in this process and its
  service is saved/restored mid-epoch.

The sender never blocks on one connection's credit while the other can send:
the analyzer flushes in global sequence order, so starving agent 0 would
deadlock the tick barrier.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from ruler import ckpt, harness, layers
from ruler.harness import Run, Stream

NUM_AGENTS = 2
CHUNK_EVENTS = 8192
PACED_RATE = 150_000.0
POLL_INTERVAL = 0.002
PASS_TIMEOUT_S = 45.0
#: the checkpoint cycle's base is taken after epoch 0's first chunk, the
#: cycle runs after its second (small on purpose: a round must stay short).
BASE_AT, CYCLE_AT = 1, 2


class Frame:
    """One pre-encoded wire frame and when (offset from pass start) it is due."""

    __slots__ = ("data", "payload_len", "kind", "due")

    def __init__(self, data: bytes, payload_len: int, kind: str, due: float) -> None:
        self.data = data
        self.payload_len = payload_len
        self.kind = kind
        self.due = due


class Encoded:
    """The stream as frames per agent, plus the raw payloads per epoch."""

    def __init__(self, stream: Stream, tracer) -> None:
        from repro.api.wire import WireEncoder
        from repro.fleet import protocol

        if len(stream.epochs) < 3:
            raise ValueError("a live pass needs an epoch per stage: at least 3")
        self.frames: List[List[Frame]] = [[] for _ in range(NUM_AGENTS)]
        #: per agent, per epoch, the index after the epoch's tick frame.
        self.frame_ends: List[List[int]] = [[] for _ in range(NUM_AGENTS)]
        #: the last epoch but one is paced, the last one queried.
        self.paced_epoch = len(stream.epochs) - 2
        self.query_epoch = len(stream.epochs) - 1
        #: per epoch, ``(agent, payload, events)`` in global sequence order.
        self.chunks: List[List[Tuple[int, bytes, int]]] = []
        #: per epoch, the prefix length after each chunk.
        self.cuts: List[List[int]] = []
        #: per epoch, the chunk indexes followed by a report query in the
        #: query pass: each agent's first and last chunk.
        self.query_chunks: List[List[int]] = []
        #: per epoch, ``(agent, events)`` sub-runs for the wire replay.
        self.sub_runs: List[List[Tuple[int, list]]] = []
        self.frame_bytes = 0
        encoders = [WireEncoder(streams=1) for _ in range(NUM_AGENTS)]
        epoch_seconds = stream.generator.events_per_epoch / PACED_RATE
        for epoch, events in enumerate(stream.epochs):
            total = len(events)
            epoch_chunks: List[Tuple[int, bytes, int]] = []
            cuts: List[int] = []
            queried: List[int] = []
            subs: List[Tuple[int, list]] = []
            for agent in range(NUM_AGENTS):
                lo = (agent * total) // NUM_AGENTS
                hi = ((agent + 1) * total) // NUM_AGENTS
                first_chunk = len(cuts)
                for start in range(lo, hi, CHUNK_EVENTS):
                    stop = min(start + CHUNK_EVENTS, hi)
                    chunk = events[start:stop]
                    with tracer.span("fleet.frame_encode"):
                        payload = encoders[agent].encode_run(0, 0, epoch, chunk)
                        data = protocol.encode_frame(protocol.FRAME_EVIDENCE, payload)
                    # each agent emits its half at half the fleet rate
                    due = epoch * epoch_seconds + (stop - lo) / (
                        PACED_RATE / NUM_AGENTS
                    )
                    self.frames[agent].append(
                        Frame(data, len(payload), "evidence", due)
                    )
                    self.frame_bytes += len(data)
                    epoch_chunks.append((agent, payload, len(chunk)))
                    cuts.append(stop)
                    subs.append((agent, chunk))
                queried.extend(sorted({first_chunk, len(cuts) - 1}))
                self.frames[agent].append(
                    Frame(
                        protocol.encode_frame(
                            protocol.FRAME_TICK, protocol.encode_tick(epoch)
                        ),
                        0,
                        "tick",
                        (epoch + 1) * epoch_seconds,
                    )
                )
                self.frame_ends[agent].append(len(self.frames[agent]))
            self.chunks.append(epoch_chunks)
            self.cuts.append(cuts)
            self.query_chunks.append(queried)
            self.sub_runs.append(subs)
        self.epoch_seconds = epoch_seconds

    def ends(self, epoch: int) -> List[int]:
        """Per agent, how many frames are out once ``epoch``'s ticks are."""
        return [ends[epoch] for ends in self.frame_ends]

    def saturating_events(self) -> int:
        return sum(n for chunks in self.chunks[: self.paced_epoch] for _a, _p, n in chunks)

    def prefix_cuts(self) -> Dict[int, List[int]]:
        """The mid-epoch references a run needs: the query stage's cuts and
        the checkpoint cycle's mark (epoch 0 after its second chunk)."""
        queried = self.query_chunks[self.query_epoch]
        return {
            0: [self.cuts[0][CYCLE_AT - 1]],
            self.query_epoch: [self.cuts[self.query_epoch][index] for index in queried],
        }


# ----------------------------------------------------------------------
# the analyzer process
# ----------------------------------------------------------------------
class Analyzer:
    """One ``repro.cli fleet analyzer`` process, launched and reaped here."""

    def __init__(self, run: Run, tracer) -> None:
        from repro.fleet.protocol import parse_endpoint

        ready = run.tmp_dir / f"ready-{time.monotonic_ns()}.json"
        env = dict(os.environ)
        src = str(harness.REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        with tracer.span("fleet.analyzer_launch"):
            self._log = open(run.tmp_dir / "analyzer.log", "ab")
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "fleet",
                    "analyzer",
                    "--mode",
                    "columns",
                    "--num-agents",
                    str(NUM_AGENTS),
                    "--ready-file",
                    str(ready),
                ],
                env=env,
                stdout=self._log,
                stderr=self._log,
            )
            run.pin_elsewhere(self.process.pid)
            deadline = started + 30.0
            while not ready.is_file():
                if self.process.poll() is not None:
                    raise RuntimeError("the fleet analyzer exited before it was ready")
                if time.perf_counter() > deadline:
                    self.kill()
                    raise RuntimeError("the fleet analyzer was not ready in 30 s")
                time.sleep(0.005)
        self.launch_seconds = time.perf_counter() - started
        endpoints = json.loads(ready.read_text())
        ready.unlink()
        self.evidence = parse_endpoint(endpoints["evidence"])
        self.query = parse_endpoint(endpoints["query"])
        self.pid = self.process.pid
        self.peak_rss_mb = 0.0
        self.cpu_seconds = 0.0

    def cpu(self) -> float:
        return harness.cpu_of_pid(self.pid)

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            self._reap(block=True)

    def _reap(self, block: bool) -> bool:
        pid, status, usage = os.wait4(self.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_seconds = usage.ru_utime + usage.ru_stime
        self._log.close()
        return True

    def stop(self) -> Dict[str, int]:
        """Fetch the counters, ask for shutdown, reap (kill after 10 s)."""
        from repro.fleet.runner import FleetQueryClient

        stats: Dict[str, int] = {}
        try:
            with FleetQueryClient(self.query, timeout=10.0) as client:
                stats = client.request({"cmd": "stats"})["stats"]
                client.request({"cmd": "shutdown"})
        except (OSError, ValueError, KeyError):
            pass
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if self._reap(block=False):
                return stats
            time.sleep(0.005)
        self.kill()
        return stats


# ----------------------------------------------------------------------
# the sender: two connections, one thread
# ----------------------------------------------------------------------
class Connection:
    """One agent's socket: handshake done, credit window known."""

    def __init__(self, endpoint, agent: int, frames: List[Frame]) -> None:
        from repro.fleet import protocol
        from repro.fleet.protocol import FrameReader

        self.agent = agent
        self.frames = frames
        self.index = 0
        self.offset = 0
        self.sent_payload = 0
        self.acked = 0
        self.acked_seq: Dict[int, int] = {}
        self.reader = FrameReader()
        self.sock = endpoint.connect(timeout=10.0)
        self.sock.sendall(
            protocol.encode_frame(
                protocol.FRAME_HELLO, protocol.encode_hello(f"ruler-{agent}")
            )
        )
        frame_type, payload = self._read_blocking()
        if frame_type != protocol.FRAME_WELCOME:
            raise ConnectionError(f"expected WELCOME, got frame type {frame_type}")
        self.credit = protocol.decode_welcome(payload)["credit_bytes"]
        self.sock.setblocking(False)

    def _read_blocking(self) -> Tuple[int, bytes]:
        while True:
            for frame in self.reader.frames():
                return frame
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("the analyzer closed the connection")
            self.reader.feed(data)

    def on_readable(self) -> None:
        from repro.fleet import protocol

        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return
        if not data:
            raise ConnectionError("the analyzer closed the connection mid-pass")
        self.reader.feed(data)
        for frame_type, payload in self.reader.frames():
            if frame_type == protocol.FRAME_ACK:
                epoch, seq, acked = protocol.decode_ack(payload)
                self.acked = max(self.acked, acked)
                self.acked_seq[epoch] = max(self.acked_seq.get(epoch, -1), seq)
            elif frame_type == protocol.FRAME_ERROR:
                raise protocol.decode_error(payload)

    def goodbye(self) -> None:
        """BYE at a frame boundary, then read until the analyzer closes."""
        from repro.fleet import protocol

        try:
            self.sock.setblocking(True)
            self.sock.settimeout(5.0)
            self.sock.sendall(protocol.encode_frame(protocol.FRAME_BYE))
            while self.sock.recv(1 << 16):
                pass
        except OSError:
            pass
        finally:
            self.close()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def send_frames(
    connections: List[Connection],
    start: float,
    paced: bool,
    stop: threading.Event,
    out: Dict,
    until_index: Optional[List[int]] = None,
    deadline: Optional[float] = None,
) -> None:
    """Drive every connection until its frames (up to ``until_index``) are out.

    Saturating: a frame goes out as soon as its connection's credit window
    has room.  Paced: additionally not before it is due.  ``out`` collects
    ``credit_wait`` (seconds with frames pending, none sendable for credit)
    and ``lateness`` (send start minus due time, paced passes).
    """
    limits = until_index or [len(c.frames) for c in connections]
    credit_wait = 0.0
    lateness: List[float] = []
    while not stop.is_set():
        now = time.perf_counter()
        if deadline is not None and now > deadline:
            raise TimeoutError("the sender did not get its frames out in time")
        writable = []
        next_due = None
        blocked_on_credit = False
        active = False
        for connection, limit in zip(connections, limits):
            if connection.index >= limit:
                continue
            active = True
            frame = connection.frames[connection.index]
            if connection.offset == 0:
                if paced and start + frame.due > now:
                    due_in = start + frame.due - now
                    next_due = due_in if next_due is None else min(next_due, due_in)
                    continue
                if (
                    connection.sent_payload + frame.payload_len - connection.acked
                    > connection.credit
                ):
                    blocked_on_credit = True
                    continue
            writable.append(connection)
        if not active:
            break
        timeout = 0.05 if next_due is None else max(0.0, min(next_due, 0.05))
        waited_from = time.perf_counter()
        readable, ready, _ = select.select(
            [c.sock for c in connections], [c.sock for c in writable], [], timeout
        )
        if not writable and blocked_on_credit:
            credit_wait += time.perf_counter() - waited_from
        for connection in connections:
            if connection.sock in readable:
                connection.on_readable()
        for connection in writable:
            if connection.sock not in ready:
                continue
            frame = connection.frames[connection.index]
            if connection.offset == 0 and paced and frame.kind == "evidence":
                lateness.append(time.perf_counter() - (start + frame.due))
            try:
                sent = connection.sock.send(
                    memoryview(frame.data)[connection.offset :]
                )
            except BlockingIOError:
                continue
            connection.offset += sent
            if connection.offset == len(frame.data):
                connection.sent_payload += frame.payload_len
                connection.offset = 0
                connection.index += 1
    out["credit_wait"] = out.get("credit_wait", 0.0) + credit_wait
    out.setdefault("lateness", []).extend(lateness)


def watch_reports(
    query_endpoint, epochs: int, stop: threading.Event, out: Dict
) -> None:
    """Poll ``stats`` every 2 ms; fetch each report the moment it exists."""
    from repro.fleet.runner import FleetQueryClient

    fetched: Dict[int, float] = {}
    documents: Dict[int, Dict] = {}
    out["fetched"] = fetched
    out["documents"] = documents
    with FleetQueryClient(query_endpoint, timeout=10.0) as client:
        next_epoch = 0
        while next_epoch < epochs and not stop.is_set():
            last = client.request({"cmd": "stats"})["last_finalized"]
            while last is not None and next_epoch <= last:
                response = client.request({"cmd": "report", "epoch": next_epoch})
                fetched[next_epoch] = time.perf_counter()
                documents[next_epoch] = response.get("report")
                next_epoch += 1
            if next_epoch < epochs:
                time.sleep(POLL_INTERVAL)


def _run_thread(target, args, errors: List[BaseException], name: str) -> threading.Thread:
    def body() -> None:
        try:
            target(*args)
        except BaseException as exc:  # surfaced by the pass, never swallowed
            errors.append(exc)

    thread = threading.Thread(target=body, name=name, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _await_report(watcher_out: Dict, epoch: int, errors: List[BaseException]) -> None:
    """Block until the watcher holds ``epoch``'s report JSON."""
    deadline = time.perf_counter() + PASS_TIMEOUT_S
    while epoch not in watcher_out.get("fetched", {}):
        if errors:
            raise errors[0]
        if time.perf_counter() > deadline:
            raise TimeoutError(f"no report for epoch {epoch} in {PASS_TIMEOUT_S:.0f} s")
        time.sleep(0.001)


def _await_ack(connection: Connection, epoch: int, seq: int) -> None:
    """Block (with a timeout) until the analyzer acked up to ``seq``."""
    deadline = time.perf_counter() + 20.0
    while connection.acked_seq.get(epoch, -1) < seq:
        if time.perf_counter() > deadline:
            raise TimeoutError(f"no ACK for epoch {epoch} seq {seq} in 20 s")
        readable, _, _ = select.select([connection.sock], [], [], 0.05)
        if readable:
            connection.on_readable()


def _query_stage(
    run: Run, encoded: Encoded, stream: Stream, connections: List[Connection], client
) -> Tuple[List[float], List[float], list, Optional[Dict]]:
    """The last epoch, one chunk at a time: a cold and a repeated ``report``
    after each agent's first and last chunk; then both ticks, and the
    finalized report."""
    tracer = run.tracer
    epoch = encoded.query_epoch
    never = threading.Event()
    cold: List[float] = []
    cached: List[float] = []
    keys: List[Tuple[int, object, object]] = []
    tracer.epoch = epoch
    request = {"cmd": "report", "epoch": epoch}
    for index, cut in enumerate(encoded.cuts[epoch]):
        agent = encoded.chunks[epoch][index][0]
        connection = connections[agent]
        limits = [c.index for c in connections]
        limits[agent] += 1
        send_frames(
            connections, 0.0, False, never, {}, limits, time.perf_counter() + 20.0
        )
        if index not in encoded.query_chunks[epoch]:
            continue
        _await_ack(connection, epoch, stream.epochs[epoch][cut - 1].seq)
        t0 = time.perf_counter()
        with tracer.span("fleet.query_cold"):
            first = client.request(request)
        t1 = time.perf_counter()
        with tracer.span("fleet.query_repeat"):
            again = client.request(request)
        t2 = time.perf_counter()
        cold.append(t1 - t0)
        cached.append(t2 - t1)
        keys.append(
            (
                cut,
                harness.json_report_key(first["report"]),
                harness.json_report_key(again["report"]),
            )
        )
        first = again = None
    # both agents' ticks close the epoch
    limits = [c.index + 1 for c in connections]
    send_frames(connections, 0.0, False, never, {}, limits, time.perf_counter() + 20.0)
    deadline = time.perf_counter() + 20.0
    while True:
        last = client.request({"cmd": "stats"})["last_finalized"]
        if last is not None and last >= epoch:
            break
        if time.perf_counter() > deadline:
            raise TimeoutError(f"epoch {epoch} was not finalized in 20 s")
        time.sleep(POLL_INTERVAL)
    document = client.request(request).get("report")
    tracer.epoch = None
    return cold, cached, keys, document


def live_pass(
    run: Run, encoded: Encoded, stream: Stream, oracle, prefix, record: bool
) -> Dict[str, float]:
    """One pass against a freshly launched analyzer: the saturating, the
    paced and the query stage on the same two connections."""
    from repro.fleet.runner import FleetQueryClient

    tracer = run.tracer
    epochs = len(encoded.chunks)
    paced_epoch, query_epoch = encoded.paced_epoch, encoded.query_epoch
    analyzer = Analyzer(run, tracer)
    connections: List[Connection] = []
    errors: List[BaseException] = []
    sender_out: Dict = {}
    watcher_out: Dict = {}
    stop = threading.Event()
    info: Dict[str, float] = {}
    stats: Dict[str, int] = {}
    cold: List[float] = []
    cached: List[float] = []
    keys: list = []
    documents: Dict[int, Dict] = {}
    try:
        for agent in range(NUM_AGENTS):
            connections.append(
                Connection(analyzer.evidence, agent, encoded.frames[agent])
            )
        with tracer.span("pass"):
            # the watcher fetches the saturating and the paced stage's reports
            watcher = _run_thread(
                watch_reports,
                (analyzer.query, query_epoch, stop, watcher_out),
                errors,
                "ruler-watcher",
            )
            cpu0 = analyzer.cpu()
            start = time.perf_counter()
            with tracer.span("fleet.saturating_stage"):
                send_frames(
                    connections,
                    start,
                    False,
                    stop,
                    sender_out,
                    encoded.ends(paced_epoch - 1),
                    start + PASS_TIMEOUT_S,
                )
                _await_report(watcher_out, paced_epoch - 1, errors)
            cpu1 = analyzer.cpu()
            # open loop: the paced epoch begins (is due) 5 ms from now
            paced_start = (
                time.perf_counter() + 0.005 - paced_epoch * encoded.epoch_seconds
            )
            with tracer.span("fleet.paced_stage"):
                send_frames(
                    connections,
                    paced_start,
                    True,
                    stop,
                    sender_out,
                    encoded.ends(paced_epoch),
                    time.perf_counter() + PASS_TIMEOUT_S,
                )
                _await_report(watcher_out, paced_epoch, errors)
            watcher.join(5.0)
            if watcher.is_alive():
                raise TimeoutError("the report watcher did not stop")
            with FleetQueryClient(analyzer.query, timeout=20.0) as client, tracer.span(
                "fleet.query_stage"
            ):
                cold, cached, keys, last_document = _query_stage(
                    run, encoded, stream, connections, client
                )
        for connection in connections:
            connection.goodbye()
        if errors:
            raise errors[0]
        fetched = watcher_out["fetched"]
        documents = dict(watcher_out["documents"])
        documents[query_epoch] = last_document
        marks = [start] + [fetched[epoch] for epoch in range(paced_epoch)]
        info = {
            # the clock stops when the watcher holds the stage's last report
            "wall": marks[-1] - start,
            "segments": [later - earlier for earlier, later in zip(marks, marks[1:])],
            "finalize": fetched[paced_epoch]
            - (paced_start + (paced_epoch + 1) * encoded.epoch_seconds),
            "analyzer_cpu_s": cpu1 - cpu0,
            "credit_wait": sender_out.get("credit_wait", 0.0),
            "launch_s": analyzer.launch_seconds,
        }
    except Exception as exc:
        errors.append(exc)
    finally:
        stop.set()
        for connection in connections:
            connection.close()
        stats = analyzer.stop()
    failure = errors[0] if errors else None
    if not record and failure is None:
        return {}
    for epoch in range(epochs):
        document = documents.get(epoch)
        key = harness.json_report_key(document) if document else None
        run.check(
            key if failure is None else None,
            oracle[epoch],
            f"finalized epoch {epoch} over the query socket ({failure!r})",
        )
    for cut, first, again in keys:
        run.check(first, prefix[(query_epoch, cut)], f"socket report e{query_epoch}@{cut}")
        run.check(
            again, prefix[(query_epoch, cut)], f"repeated socket report e{query_epoch}@{cut}"
        )
    for _ in range(2 * len(encoded.query_chunks[query_epoch]) - 2 * len(keys)):
        run.op(False, f"query not reached ({failure!r})")
    if failure is not None:
        return {}
    run.sample("pass_wall_s", info["wall"])
    run.extend("pass_segment_s", info["segments"])
    run.sample("cpu_s", info["analyzer_cpu_s"])
    run.sample("cpu_events", encoded.saturating_events())
    run.sample("analyzer_peak_rss_mb", analyzer.peak_rss_mb)
    run.sample("finalize_s", info["finalize"])
    run.extend("sender_lateness_s", sender_out.get("lateness", []))
    run.extend("report_cold_s", cold)
    run.extend("report_cached_s", cached)
    info["stats"] = stats
    return info


def checkpoint_cycles(run: Run, encoded: Encoded, stream: Stream, prefix):
    """Save/restore the analyzer-side service state mid-epoch, in-process.

    The chunks are decoded exactly as an events-mode analyzer would
    (``ServiceIngestCore`` over a plain arrays service): epoch 0 up to its
    second chunk, with the base after its first.
    A generator: every ``next()`` runs one cycle on that one service and
    yields the serialized sizes; ``close()`` counts what was planned but not
    reached as failed.
    """
    from repro.api import Zero07Service
    from repro.api.wire import WireDecoder
    from repro.fleet.analyzer import ServiceIngestCore

    tracer = run.tracer
    epoch = 0
    chunks = encoded.chunks[epoch]
    harness.settle_gc()
    core = ServiceIngestCore(Zero07Service(engine="arrays"))
    decoders = [WireDecoder() for _ in range(NUM_AGENTS)]
    before = run.attempted
    cycles = 0
    failure: Optional[BaseException] = None
    try:
        base = None
        for index, (agent, payload, _n) in enumerate(chunks[:CYCLE_AT]):
            core.append_chunk(decoders[agent].decode_columns(payload), None)
            if index + 1 == BASE_AT:
                base = core.service.checkpoint()
        live = harness.report_key(core.report(epoch))
        held = encoded.cuts[epoch][CYCLE_AT - 1]
        run.check(live, prefix[(epoch, held)], "live report before the cycle")
        while True:
            cycles += 1
            harness.settle_gc()
            with tracer.span("pass"):
                sizes = ckpt.full_and_delta_cycle(
                    run,
                    core.service,
                    base,
                    epoch,
                    live,
                    Zero07Service.restore,
                    lambda restored: None,
                    held,
                    held - encoded.cuts[epoch][BASE_AT - 1],
                    verify=cycles == 1,
                )
            yield sizes
    except Exception as exc:
        failure = exc
    finally:
        planned = 1 + ckpt.CHECKS_PER_CYCLE
        for _ in range(planned - (run.attempted - before)):
            run.op(False, f"checkpoint cycle step not reached ({failure!r})")


def agent_client_pass(run: Run, stream: Stream, oracle) -> None:
    """One traced pass with the real ``FleetAgentClient`` on both slices."""
    from repro.fleet.agent import FleetAgentClient
    from repro.fleet.runner import FleetQueryClient

    tracer = run.tracer
    analyzer = Analyzer(run, tracer)
    clients = []
    failure: Optional[BaseException] = None
    documents: Dict[int, Dict] = {}
    try:
        clients = [
            FleetAgentClient(
                f"ruler-client-{agent}", analyzer.evidence, chunk_events=CHUNK_EVENTS
            )
            for agent in range(NUM_AGENTS)
        ]
        for client in clients:
            client.connect()
        started = time.perf_counter()
        with tracer.span("pass"):
            for epoch, events in enumerate(stream.epochs):
                tracer.epoch = epoch
                total = len(events)
                for agent, client in enumerate(clients):
                    lo = (agent * total) // NUM_AGENTS
                    hi = ((agent + 1) * total) // NUM_AGENTS
                    with tracer.span("fleet.agent_send_run"):
                        client.send_run(epoch, events[lo:hi])
                for client in clients:
                    client.tick(epoch)
            for client in clients:
                with tracer.span("fleet.agent_drain"):
                    client.drain()
            tracer.epoch = None
        wall = time.perf_counter() - started
        stalls = sum(client.stats.credit_stalls for client in clients)
        for client in clients:
            client.close()
        with FleetQueryClient(analyzer.query, timeout=20.0) as query:
            for epoch in range(len(stream.epochs)):
                documents[epoch] = query.request({"cmd": "report", "epoch": epoch})[
                    "report"
                ]
        run.set("fleet.agent_send_run_events_per_s", stream.events_total / wall)
        run.set("fleet.agent_credit_stalls", stalls)
    except Exception as exc:
        failure = exc
    finally:
        analyzer.stop()
    for epoch in range(len(stream.epochs)):
        document = documents.get(epoch)
        run.check(
            harness.json_report_key(document) if document else None,
            oracle[epoch],
            f"finalized epoch {epoch} via FleetAgentClient ({failure!r})",
        )


def inproc_replay(run: Run, encoded: Encoded) -> float:
    """The saturating stage's frames through the analyzer's public pieces,
    no sockets."""
    from repro.api.wire import LinkRemap, WireDecoder
    from repro.fleet import protocol
    from repro.fleet.analyzer import ColumnarIngestCore, report_to_json
    from repro.fleet.protocol import FrameReader

    tracer = run.tracer
    core = ColumnarIngestCore()
    decoders = [WireDecoder() for _ in range(NUM_AGENTS)]
    remaps = [LinkRemap(decoder, core._link_index) for decoder in decoders]
    readers = [FrameReader() for _ in range(NUM_AGENTS)]
    positions = [0] * NUM_AGENTS
    with tracer.span("replay"):
        for epoch, chunks in enumerate(encoded.chunks[: encoded.paced_epoch]):
            tracer.epoch = epoch
            for agent, _payload, _n in chunks:
                frame = encoded.frames[agent][positions[agent]]
                positions[agent] += 1
                with tracer.span("fleet.frame_parse"):
                    readers[agent].feed(frame.data)
                    parsed = list(readers[agent].frames())
                for frame_type, payload in parsed:
                    if frame_type != protocol.FRAME_EVIDENCE:
                        continue
                    with tracer.span("fleet.decode"):
                        columns = decoders[agent].decode_columns(payload)
                    with tracer.span("fleet.core_append"):
                        core.append_chunk(columns, remaps[agent])
            for agent in range(NUM_AGENTS):
                positions[agent] += 1  # the epoch's tick frame
            with tracer.span("fleet.core_tick"):
                core.tick(epoch)
            with tracer.span("fleet.report_json"):
                json.dumps(report_to_json(core.report(epoch)), sort_keys=True)
        tracer.epoch = None
    times = tracer.self_times(tracer.pass_id)
    total = 0.0
    for name in (
        "fleet.frame_parse",
        "fleet.decode",
        "fleet.core_append",
        "fleet.core_tick",
        "fleet.report_json",
    ):
        run.set(f"{name}_s", times.get(name, 0.0), encoded.paced_epoch)
        total += times.get(name, 0.0)
    return total


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_workload(run: Run) -> None:
    null = harness.Tracer()

    def one_setup():
        stream = harness.make_stream(run.workload, run.sizing, run.seed, run.lap)
        oracle = harness.final_oracle(stream, run.lap)
        encoded = Encoded(stream, null)
        run.lap()
        Analyzer(run, null).stop()  # one pass's launch + stop
        return stream, oracle, encoded

    stream, oracle, encoded = harness.time_setups(run, one_setup)
    rss_after_setup = harness.current_rss_mb()
    epochs = len(stream.epochs)
    queries = 2 * len(encoded.query_chunks[encoded.query_epoch])
    planned_min = epochs + queries + 1 + ckpt.CHECKS_PER_CYCLE
    run.write_progress(planned_min)
    run.start_window()
    if run.trace:
        _traced(run, stream, oracle, encoded, rss_after_setup)
    else:
        _end_to_end(run, stream, oracle, encoded, planned_min)


def _end_to_end(run: Run, stream: Stream, oracle, encoded: Encoded, planned_min: int) -> None:
    """Rounds of (live pass, checkpoint cycle) until the window closes: every
    metric's repetitions are spread over the whole window.  No warm-up pass:
    every pass meets a freshly launched analyzer anyway, and set-up already
    launched one and ran the encoder."""
    prefix = harness.prefix_oracle(stream, encoded.prefix_cuts())
    cycles = checkpoint_cycles(run, encoded, stream, prefix)

    def one_round() -> None:
        live_pass(run, encoded, stream, oracle, prefix, record=True)
        next(cycles, None)
        run.write_progress(planned_min)

    try:
        run.repeat_until(1.0, one_round)
    finally:
        cycles.close()
    run.write_progress(planned_min)

    run.set_end_to_end(encoded.saturating_events())
    rss = run.samples.get("analyzer_peak_rss_mb", [])
    if rss:
        run.set("peak_rss_mb", max(rss), len(rss))


def _traced(run: Run, stream: Stream, oracle, encoded: Encoded, rss_after_setup: float) -> None:
    tracer = run.tracer
    prefix = harness.prefix_oracle(stream, encoded.prefix_cuts())
    log = harness.alternate_passes(
        run,
        0.3,
        lambda _traced: live_pass(run, encoded, stream, oracle, prefix, record=True),
    )
    traced, last = log.traced, log.last

    if last:
        run.set("fleet.sender_credit_wait_s", last["credit_wait"])
        run.set("fleet.analyzer_launch_s", last["launch_s"])
        run.set("fleet.analyzer_cpu_s", last["analyzer_cpu_s"])
        for counter in (
            "frames_received",
            "bytes_received",
            "chunks_staged",
            "acks_deferred",
            "backpressure_engagements",
            "duplicate_chunks",
            "protocol_errors",
        ):
            run.set(f"fleet.{counter}", last["stats"].get(counter, 0))
        run.set_median("fleet.sender_lateness_p50_s", "sender_lateness_s")

    tracer.pass_id += 1
    cycles = checkpoint_cycles(run, encoded, stream, prefix)
    sizes = next(cycles, None) or {}
    cycles.close()
    ckpt.set_layer_metrics(run, tracer.self_times(tracer.pass_id), sizes)
    run.set_tails()
    tracer.pass_id += 1
    agent_client_pass(run, stream, oracle)

    tracer.pass_id += 1
    Encoded(stream, tracer)  # the set-up's encode, again, under spans
    run.set("fleet.frame_encode_s", tracer.self_times(tracer.pass_id)["fleet.frame_encode"])
    run.set("fleet.frame_bytes_per_event", encoded.frame_bytes / stream.events_total)
    tracer.pass_id += 1
    inproc_s = inproc_replay(run, encoded)
    run.set("fleet.inproc_events_per_s", encoded.saturating_events() / inproc_s)
    if traced:
        wall = harness.median(traced)
        run.set("fleet.transport_residual_s", wall - inproc_s)
        # one process cannot see inside the other: what the saturating stage
        # spends beyond the in-process chain is the residual (sockets,
        # asyncio, acks, flow control, query polling)
        run.set_trace_shares(log.untraced, traced, [min(1.0, inproc_s / wall)])
    tracer.pass_id += 1
    layers.wire_replay(run, encoded.sub_runs, stream)
    tracer.pass_id += 1
    layers.core_replay(run, stream)
    run.set("state.rss_after_setup_mb", rss_after_setup)
    run.set("loadgen.generate_events_per_s", stream.events_total / stream.generate_seconds)
    run.set("loadgen.path_share", layers.path_share(stream))
