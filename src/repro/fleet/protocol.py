"""Framing and handshake of the fleet wire protocol.

One fleet connection carries length-prefixed *frames* over a byte stream
(TCP or a Unix-domain socket).  The layout is deliberately tiny and pinned
by golden byte tests:

* frame header — ``<IB``: payload length (little-endian uint32, payload
  bytes only) followed by one frame-type byte;
* ``HELLO``/``WELCOME`` payloads — ``<4sH`` (:data:`FLEET_MAGIC` +
  little-endian protocol version) followed by a UTF-8 JSON body;
* ``EVIDENCE`` payloads are verbatim :class:`~repro.api.wire.WireEncoder`
  messages (magic ``RW01``), so the columnar evidence codec crosses the
  network unchanged;
* ``TICK`` is ``<q`` (epoch), ``ACK`` is ``<qqq`` (epoch, sequence
  watermark, cumulative acked payload bytes).

Every violation maps onto the :class:`FleetProtocolError` taxonomy — a
truncated frame, an oversized length prefix or an unknown type byte is a
loud error, never a silent desync, and a peer's death surfaces as an
exception on the next read/write instead of a hang (all socket operations
run under timeouts).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: magic prefix of HELLO/WELCOME payloads ("fleet 007").
FLEET_MAGIC = b"F007"

#: protocol version spoken by this build; bumped on incompatible changes.
FLEET_PROTOCOL_VERSION = 1

#: refuse frames above this payload size (a corrupt length prefix would
#: otherwise stall the stream waiting for gigabytes that never come).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_FRAME_HEADER = struct.Struct("<IB")
_HANDSHAKE_HEADER = struct.Struct("<4sH")
_TICK = struct.Struct("<q")
_ACK = struct.Struct("<qqq")

# frame types --------------------------------------------------------------
FRAME_HELLO = 1
FRAME_WELCOME = 2
FRAME_EVIDENCE = 3
FRAME_TICK = 4
FRAME_ACK = 5
FRAME_HEARTBEAT = 6
FRAME_BYE = 7
FRAME_ERROR = 8

_KNOWN_FRAMES = frozenset(
    (
        FRAME_HELLO,
        FRAME_WELCOME,
        FRAME_EVIDENCE,
        FRAME_TICK,
        FRAME_ACK,
        FRAME_HEARTBEAT,
        FRAME_BYE,
        FRAME_ERROR,
    )
)


# error taxonomy -----------------------------------------------------------
class FleetProtocolError(RuntimeError):
    """Base of every fleet transport violation."""


class TruncatedFrameError(FleetProtocolError):
    """The stream ended (or was severed) in the middle of a frame."""


class FrameTooLargeError(FleetProtocolError):
    """A length prefix exceeded :data:`MAX_FRAME_BYTES`."""


class UnknownFrameError(FleetProtocolError):
    """A frame carried a type byte this protocol version does not know."""


class HandshakeError(FleetProtocolError):
    """The HELLO/WELCOME exchange was malformed."""


class VersionMismatchError(HandshakeError):
    """The peer speaks a different protocol version (both are named)."""

    def __init__(self, ours: int, theirs: int) -> None:
        self.ours = ours
        self.theirs = theirs
        super().__init__(
            f"fleet protocol version mismatch: peer speaks v{theirs}, "
            f"this end speaks v{ours}"
        )


class PeerError(FleetProtocolError):
    """The peer reported a protocol error and is closing the connection."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"peer error [{code}]: {message}")


# framing ------------------------------------------------------------------
def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    """One wire frame: ``<IB`` header (payload length, type) + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"refusing to encode a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})"
        )
    return _FRAME_HEADER.pack(len(payload), frame_type) + payload


class FrameReader:
    """Incremental frame parser usable from asyncio and blocking code alike.

    Feed arbitrary byte chunks; iterate complete frames.  The reader never
    loses sync: a bad length or type byte raises immediately, and
    :meth:`close` raises :class:`TruncatedFrameError` when the stream ends
    mid-frame — which is how a severed connection distinguishes "clean
    boundary" from "half a frame lost".
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes

    def feed(self, data: bytes) -> None:
        """Append received bytes to the parse buffer."""
        self._buffer += data

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Yield every complete ``(frame_type, payload)`` buffered so far."""
        header = _FRAME_HEADER
        while len(self._buffer) >= header.size:
            length, frame_type = header.unpack_from(self._buffer, 0)
            if length > self._max:
                raise FrameTooLargeError(
                    f"frame length {length} exceeds cap {self._max}"
                )
            if frame_type not in _KNOWN_FRAMES:
                raise UnknownFrameError(f"unknown frame type {frame_type}")
            end = header.size + length
            if len(self._buffer) < end:
                return
            # one copy, through a view released before the buffer shrinks
            with memoryview(self._buffer) as view:
                payload = bytes(view[header.size : end])
            del self._buffer[:end]
            yield frame_type, payload

    def close(self) -> None:
        """Declare end-of-stream; raises if a frame was left half-written."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended mid-frame with {len(self._buffer)} "
                "unparsed bytes"
            )


# handshake ----------------------------------------------------------------
def _encode_handshake(body: Dict) -> bytes:
    return _HANDSHAKE_HEADER.pack(FLEET_MAGIC, FLEET_PROTOCOL_VERSION) + (
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def _decode_handshake(payload: bytes, what: str) -> Dict:
    if len(payload) < _HANDSHAKE_HEADER.size:
        raise HandshakeError(f"{what} payload too short ({len(payload)} bytes)")
    magic, version = _HANDSHAKE_HEADER.unpack_from(payload, 0)
    if magic != FLEET_MAGIC:
        raise HandshakeError(f"bad {what} magic {magic!r}")
    if version != FLEET_PROTOCOL_VERSION:
        raise VersionMismatchError(FLEET_PROTOCOL_VERSION, version)
    try:
        body = json.loads(payload[_HANDSHAKE_HEADER.size :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HandshakeError(f"undecodable {what} body: {exc}") from exc
    if not isinstance(body, dict):
        raise HandshakeError(f"{what} body must be a JSON object")
    return body


def encode_hello(agent_id: str, epoch_watermark: int = -1) -> bytes:
    """HELLO payload: who is connecting and how far its stream has epoched."""
    return _encode_handshake(
        {"agent_id": agent_id, "epoch_watermark": epoch_watermark}
    )


def decode_hello(payload: bytes) -> Dict:
    """Validate and decode a HELLO payload (version-checked)."""
    body = _decode_handshake(payload, "HELLO")
    if not isinstance(body.get("agent_id"), str) or not body["agent_id"]:
        raise HandshakeError("HELLO must carry a non-empty agent_id")
    return body


def encode_welcome(credit_bytes: int, acked: Dict[int, int]) -> bytes:
    """WELCOME payload: the credit window and per-epoch acked watermarks."""
    return _encode_handshake(
        {
            "credit_bytes": credit_bytes,
            "acked": {str(epoch): seq for epoch, seq in acked.items()},
        }
    )


def decode_welcome(payload: bytes) -> Dict:
    """Validate and decode a WELCOME payload (version-checked).

    Returns ``{"credit_bytes": int, "acked": {epoch: seq}}`` with integer
    epoch keys restored.
    """
    body = _decode_handshake(payload, "WELCOME")
    credit = body.get("credit_bytes")
    if not isinstance(credit, int) or credit <= 0:
        raise HandshakeError("WELCOME must grant a positive credit window")
    acked = body.get("acked", {})
    if not isinstance(acked, dict):
        raise HandshakeError("WELCOME acked watermarks must be an object")
    return {
        "credit_bytes": credit,
        "acked": {int(epoch): int(seq) for epoch, seq in acked.items()},
    }


def encode_tick(epoch: int) -> bytes:
    """TICK payload: the epoch the sending agent has finished."""
    return _TICK.pack(epoch)


def decode_tick(payload: bytes) -> int:
    """Decode a TICK payload into its epoch."""
    if len(payload) != _TICK.size:
        raise FleetProtocolError(f"TICK payload must be {_TICK.size} bytes")
    return _TICK.unpack(payload)[0]


def encode_ack(epoch: int, seq: int, acked_bytes: int) -> bytes:
    """ACK payload: epoch + seq watermark plus cumulative acked bytes."""
    return _ACK.pack(epoch, seq, acked_bytes)


def decode_ack(payload: bytes) -> Tuple[int, int, int]:
    """Decode an ACK payload into ``(epoch, seq, acked_bytes)``."""
    if len(payload) != _ACK.size:
        raise FleetProtocolError(f"ACK payload must be {_ACK.size} bytes")
    return _ACK.unpack(payload)


def encode_error(code: str, message: str) -> bytes:
    """ERROR payload (best-effort courtesy before closing)."""
    return json.dumps(
        {"code": code, "message": message}, sort_keys=True
    ).encode("utf-8")


def decode_error(payload: bytes) -> PeerError:
    """Decode an ERROR payload into a raisable :class:`PeerError`."""
    try:
        body = json.loads(payload.decode("utf-8"))
        return PeerError(str(body.get("code")), str(body.get("message")))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return PeerError("undecodable", repr(payload[:80]))


# endpoints ----------------------------------------------------------------
@dataclass(frozen=True)
class Endpoint:
    """A parsed transport address: ``tcp:host:port`` or ``unix:/path``."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "tcp":
            return f"tcp:{self.host}:{self.port}"
        return f"unix:{self.path}"

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """Open a blocking client socket to this endpoint (timeout applies)."""
        if self.kind == "tcp":
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.path)
        return sock


def parse_endpoint(text: str) -> Endpoint:
    """Parse ``tcp:HOST:PORT`` / ``unix:/PATH`` into an :class:`Endpoint`."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed endpoint {text!r}")
    if kind == "tcp":
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp endpoint needs host:port, got {text!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"non-numeric tcp port in {text!r}") from None
        if not 0 <= port <= 65535:
            raise ValueError(f"tcp port out of range in {text!r}")
        return Endpoint(kind="tcp", host=host, port=port)
    if kind == "unix":
        return Endpoint(kind="unix", path=rest)
    raise ValueError(f"unknown endpoint kind {kind!r} (want tcp or unix)")
