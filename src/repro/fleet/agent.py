"""The fleet agent client: a per-host evidence sender.

One :class:`FleetAgentClient` owns one socket to the analyzer and streams
its contiguous slice of each epoch's evidence as columnar
:class:`~repro.api.wire.WireEncoder` chunks, each wrapped in one EVIDENCE
frame.  Delivery is at-least-once with exactly-once effect:

* every chunk is retained (events + sequence numbers) until the analyzer's
  ACK watermark covers its last sequence number;
* sends block on the WELCOME credit window — unacked payload bytes never
  exceed the analyzer's grant, so an analyzer that acks slowly slows the
  sender;
* on any socket error the client reconnects with capped exponential backoff
  plus jitter, replays its HELLO, trims the retained chunks against the
  WELCOME's per-epoch acked watermarks, re-encodes the survivors on the
  fresh wire stream (the interned tables replay automatically) and re-sends
  them followed by its epoch ticks — ticks are idempotent at the analyzer,
  redelivered evidence is trimmed or deduplicated, so a run interrupted by
  any number of reconnects finalizes bit-identically to an uninterrupted
  one.

The client is synchronous (agents are sender processes, not servers); the
only concurrency is the ack pump interleaved with sends via ``select``.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.events import Evidence
from repro.api.wire import WireEncoder
from repro.fleet import protocol
from repro.fleet.protocol import (
    Endpoint,
    FleetProtocolError,
    FrameReader,
    HandshakeError,
    PeerError,
)

#: exit status of a scripted mid-run crash (``fail_after_events``).
KILL_EXIT_CODE = 17


@dataclass
class AgentStats:
    """Counters describing one agent client's lifetime."""

    connects: int = 0
    reconnects: int = 0
    chunks_sent: int = 0
    events_sent: int = 0
    bytes_sent: int = 0
    acks_received: int = 0
    redelivered_chunks: int = 0
    redelivered_events: int = 0
    credit_stalls: int = 0
    ticks_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain JSON-serializable mapping."""
        return dict(self.__dict__)


class _Retained:
    """One sent-but-unacked chunk, replayable on reconnect."""

    __slots__ = ("epoch", "events", "seqs", "last_seq", "nbytes")

    def __init__(
        self,
        epoch: int,
        events: List[Evidence],
        seqs: np.ndarray,
        nbytes: int,
    ) -> None:
        self.epoch = epoch
        self.events = events
        self.seqs = seqs
        self.last_seq = int(seqs[-1]) if len(seqs) else -1
        self.nbytes = nbytes


class FleetAgentClient:
    """Streams evidence chunks to a :class:`~repro.fleet.analyzer.FleetAnalyzer`.

    ``log`` (when given) receives one JSON-serializable dict per lifecycle
    event — the runner points it at the agent's per-run JSONL file.
    ``fail_after_events`` arms the scripted chaos kill: once that many
    events have been sent the process dies with :data:`KILL_EXIT_CODE`
    without closing the socket, exactly like a crashed host.
    """

    def __init__(
        self,
        agent_id: str,
        endpoint: Endpoint,
        chunk_events: int = 2048,
        connect_timeout: float = 10.0,
        io_timeout: float = 30.0,
        heartbeat_interval: float = 5.0,
        max_reconnect_attempts: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        reconnect_seed: Optional[int] = None,
        fail_after_events: Optional[int] = None,
        log: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.agent_id = agent_id
        self.endpoint = endpoint
        self.chunk_events = chunk_events
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_reconnect_attempts = max_reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = random.Random(
            reconnect_seed
            if reconnect_seed is not None
            else hash(agent_id) & 0xFFFFFFFF
        )
        self._fail_after_events = fail_after_events
        self._log = log
        self.stats = AgentStats()
        self.credit_bytes: Optional[int] = None
        self._encoder = WireEncoder(streams=1)
        self._sock: Optional[socket.socket] = None
        self._frames = FrameReader()
        self._unacked: Deque[_Retained] = deque()
        self._inflight_bytes = 0
        self._ticked: List[int] = []
        self._epoch_watermark = -1
        self._closed = False

    # -- lifecycle ----------------------------------------------------
    def connect(self) -> None:
        """Dial the analyzer and complete the HELLO/WELCOME handshake."""
        self._dial()
        self.stats.connects += 1
        self._emit("connect", endpoint=str(self.endpoint))

    def close(self) -> None:
        """Say BYE at a frame boundary and drop the socket."""
        if self._sock is not None:
            try:
                self._sock.sendall(protocol.encode_frame(protocol.FRAME_BYE))
            except OSError:
                pass
            self._teardown()
        self._closed = True
        self._emit("close")

    def __enter__(self) -> "FleetAgentClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the send path ------------------------------------------------
    def send_run(
        self,
        epoch: int,
        events: Sequence[Evidence],
        seqs: Optional[Sequence[int]] = None,
    ) -> None:
        """Stream one epoch slice (strictly increasing seqs) as chunks."""
        events = events if isinstance(events, list) else list(events)
        if seqs is None:
            seqs = [event.seq for event in events]
        seq_array = np.asarray(seqs, dtype=np.int64)
        if len(seq_array) != len(events):
            raise ValueError("seqs must align with events")
        for lo in range(0, len(events), self.chunk_events):
            hi = lo + self.chunk_events
            self._send_chunk(epoch, events[lo:hi], seq_array[lo:hi])

    def _send_chunk(
        self, epoch: int, events: List[Evidence], seqs: np.ndarray
    ) -> None:
        if not events:
            return
        payload = self._encoder.encode_run(0, 0, epoch, events, seqs=seqs)
        retained = _Retained(epoch, events, seqs, len(payload))
        self._unacked.append(retained)
        frame = protocol.encode_frame(protocol.FRAME_EVIDENCE, payload)
        self._transmit(retained, frame)
        self.stats.chunks_sent += 1
        self.stats.events_sent += len(events)
        if (
            self._fail_after_events is not None
            and self.stats.events_sent >= self._fail_after_events
        ):
            # scripted chaos: die like a crashed host — no BYE, no close.
            self._emit("scripted-kill", events_sent=self.stats.events_sent)
            os._exit(KILL_EXIT_CODE)

    def _transmit(self, retained: _Retained, frame: bytes) -> None:
        """Send one framed chunk under the credit window, reconnecting as needed."""
        while True:
            try:
                self._ensure_connected()
                stalled = False
                while (
                    self.credit_bytes is not None
                    and self._inflight_bytes + retained.nbytes
                    > self.credit_bytes
                    and self._unacked[0] is not retained
                ):
                    if not stalled:
                        stalled = True
                        self.stats.credit_stalls += 1
                    self._pump(block=True)
                self._sock.sendall(frame)
                self._inflight_bytes += retained.nbytes
                self.stats.bytes_sent += len(frame)
                self._pump(block=False)
                return
            except (OSError, FleetProtocolError):
                # the reconnect replay re-encodes and re-sends every unacked
                # chunk (this one included) on the fresh wire stream; the
                # stale frame must not be retried — its interned-table
                # prefix belongs to the dead stream.
                self._reconnect()
                return

    def tick(self, epoch: int) -> None:
        """Declare this agent's slice of ``epoch`` complete."""
        self._ticked.append(epoch)
        self._epoch_watermark = max(self._epoch_watermark, epoch)
        while True:
            try:
                self._ensure_connected()
                self._sock.sendall(
                    protocol.encode_frame(
                        protocol.FRAME_TICK, protocol.encode_tick(epoch)
                    )
                )
                self.stats.ticks_sent += 1
                self._emit("tick", epoch=epoch)
                return
            except (OSError, FleetProtocolError):
                self._reconnect()  # the replay re-sends every tick
                self.stats.ticks_sent += 1
                self._emit("tick", epoch=epoch, via="reconnect")
                return

    def drain(self) -> None:
        """Block until every sent chunk is acked (or reconnect/raise)."""
        while self._unacked:
            try:
                self._ensure_connected()
                self._pump(block=True)
            except (OSError, FleetProtocolError):
                self._reconnect()

    def sever(self) -> None:
        """Tear the transport down abruptly, mid-stream (chaos/test hook).

        The analyzer sees an unannounced EOF (a truncated frame if one was
        in flight); this end's next socket operation fails and takes the
        reconnect-and-redeliver path — exactly a yanked cable.
        """
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # -- socket plumbing ----------------------------------------------
    def _ensure_connected(self) -> None:
        if self._sock is None:
            raise ConnectionError("not connected")

    def _dial(self) -> None:
        sock = self.endpoint.connect(timeout=self.connect_timeout)
        sock.settimeout(self.io_timeout)
        self._sock = sock
        self._frames = FrameReader()
        hello = protocol.encode_frame(
            protocol.FRAME_HELLO,
            protocol.encode_hello(self.agent_id, self._epoch_watermark),
        )
        sock.sendall(hello)
        frame_type, payload = self._read_frame_blocking()
        if frame_type == protocol.FRAME_ERROR:
            raise protocol.decode_error(payload)
        if frame_type != protocol.FRAME_WELCOME:
            raise HandshakeError(
                f"expected WELCOME after HELLO, got frame type {frame_type}"
            )
        welcome = protocol.decode_welcome(payload)
        self.credit_bytes = welcome["credit_bytes"]
        self._inflight_bytes = 0
        return welcome

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None

    def _reconnect(self) -> None:
        """Reconnect with backoff, then redeliver everything unacked."""
        if self._closed:
            raise ConnectionError("client is closed")
        self._teardown()
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_reconnect_attempts):
            delay = min(self.backoff_cap, self.backoff_base * (2**attempt))
            time.sleep(delay * (0.5 + self._rng.random() / 2))
            try:
                welcome = self._dial()
                break
            except (OSError, FleetProtocolError) as exc:
                if isinstance(exc, PeerError):
                    raise  # the analyzer rejected us; retrying cannot help
                last_error = exc
                self._teardown()
        else:
            raise ConnectionError(
                f"agent {self.agent_id}: analyzer unreachable after "
                f"{self.max_reconnect_attempts} attempts"
            ) from last_error
        self.stats.reconnects += 1
        self._emit("reconnect", attempt=attempt + 1)
        self._redeliver(welcome["acked"])

    def _redeliver(self, acked: Dict[int, int]) -> None:
        """Replay unacked chunks (trimmed by watermarks) and all ticks."""
        self._encoder.reset_stream(0)
        survivors: Deque[_Retained] = deque()
        for retained in self._unacked:
            if acked.get(retained.epoch, -1) >= retained.last_seq:
                continue  # the analyzer already holds this chunk
            survivors.append(retained)
        self._unacked = survivors
        self._inflight_bytes = 0
        for retained in list(survivors):
            payload = self._encoder.encode_run(
                0, 0, retained.epoch, retained.events, seqs=retained.seqs
            )
            retained.nbytes = len(payload)
            self._sock.sendall(
                protocol.encode_frame(protocol.FRAME_EVIDENCE, payload)
            )
            self._inflight_bytes += retained.nbytes
            self.stats.redelivered_chunks += 1
            self.stats.redelivered_events += len(retained.events)
        for epoch in self._ticked:
            self._sock.sendall(
                protocol.encode_frame(
                    protocol.FRAME_TICK, protocol.encode_tick(epoch)
                )
            )
        self._emit(
            "redeliver",
            chunks=len(survivors),
            ticks=len(self._ticked),
        )

    def _read_frame_blocking(self) -> Tuple[int, bytes]:
        while True:
            for frame in self._frames.frames():
                return frame
            data = self._sock.recv(1 << 20)
            if not data:
                self._frames.close()
                raise ConnectionError("analyzer closed the connection")
            self._frames.feed(data)

    def _pump(self, block: bool) -> None:
        """Process pending analyzer frames; optionally wait for one."""
        if not block:
            readable, _, _ = select.select([self._sock], [], [], 0)
            if not readable:
                self._drain_buffered()
                return
        frame_type, payload = self._read_frame_blocking()
        self._on_frame(frame_type, payload)
        self._drain_buffered()

    def _drain_buffered(self) -> None:
        for frame_type, payload in self._frames.frames():
            self._on_frame(frame_type, payload)

    def _on_frame(self, frame_type: int, payload: bytes) -> None:
        if frame_type == protocol.FRAME_ACK:
            epoch, seq, _acked_bytes = protocol.decode_ack(payload)
            self.stats.acks_received += 1
            while (
                self._unacked
                and self._unacked[0].epoch == epoch
                and self._unacked[0].last_seq <= seq
            ):
                done = self._unacked.popleft()
                self._inflight_bytes -= done.nbytes
        elif frame_type == protocol.FRAME_HEARTBEAT:
            pass  # our own echo
        elif frame_type == protocol.FRAME_ERROR:
            raise protocol.decode_error(payload)
        else:
            raise FleetProtocolError(
                f"analyzer sent unexpected frame type {frame_type}"
            )

    # -- logging ------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self._log is None:
            return
        record = {"ts": time.time(), "agent": self.agent_id, "event": event}
        record.update(fields)
        self._log(record)


def jsonl_logger(path: str) -> Callable[[Dict], None]:
    """A ``log`` callable appending one JSON object per line to ``path``."""

    def write(record: Dict) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    return write
