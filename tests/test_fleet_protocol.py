"""Golden byte-level tests of the fleet wire protocol.

The frame header, handshake prefix, and the fixed-layout TICK/ACK payloads
are pinned down to exact bytes (magic, version, endianness, field order), so
any layout change breaks loudly here and forces a deliberate protocol
version bump.  The incremental :class:`FrameReader` is exercised across
arbitrary fragmentation, truncation, oversize and unknown-type corruption —
every violation must raise a typed error, never desync.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.fleet import protocol
from repro.fleet.protocol import (
    FLEET_MAGIC,
    FLEET_PROTOCOL_VERSION,
    Endpoint,
    FleetProtocolError,
    FrameReader,
    FrameTooLargeError,
    HandshakeError,
    TruncatedFrameError,
    UnknownFrameError,
    VersionMismatchError,
    parse_endpoint,
)


class TestGoldenFrameBytes:
    def test_magic_and_version_are_pinned(self):
        assert FLEET_MAGIC == b"F007"
        assert FLEET_PROTOCOL_VERSION == 1

    def test_empty_frame_is_five_header_bytes(self):
        # <IB: uint32 length (LE) + one type byte; BYE carries no payload.
        assert protocol.encode_frame(protocol.FRAME_BYE) == (
            b"\x00\x00\x00\x00\x07"
        )

    def test_tick_frame_golden_bytes(self):
        frame = protocol.encode_frame(
            protocol.FRAME_TICK, protocol.encode_tick(7)
        )
        assert frame == b"\x08\x00\x00\x00\x04\x07\x00\x00\x00\x00\x00\x00\x00"

    def test_ack_payload_is_little_endian_qqq(self):
        payload = protocol.encode_ack(2, 100, 4096)
        assert payload == struct.pack("<qqq", 2, 100, 4096)
        assert protocol.decode_ack(payload) == (2, 100, 4096)

    def test_hello_payload_golden_bytes(self):
        payload = protocol.encode_hello("a0", 3)
        assert payload == (
            b"F007\x01\x00"
            b'{"agent_id":"a0","epoch_watermark":3}'
        )
        assert protocol.decode_hello(payload) == {
            "agent_id": "a0",
            "epoch_watermark": 3,
        }

    def test_welcome_payload_golden_bytes(self):
        payload = protocol.encode_welcome(1024, {0: 511})
        assert payload == (
            b"F007\x01\x00"
            b'{"acked":{"0":511},"credit_bytes":1024}'
        )
        decoded = protocol.decode_welcome(payload)
        assert decoded == {"credit_bytes": 1024, "acked": {0: 511}}

    def test_negative_epoch_watermark_round_trips(self):
        decoded = protocol.decode_hello(protocol.encode_hello("agent-1"))
        assert decoded["epoch_watermark"] == -1

    def test_frame_type_numbers_are_pinned(self):
        assert (
            protocol.FRAME_HELLO,
            protocol.FRAME_WELCOME,
            protocol.FRAME_EVIDENCE,
            protocol.FRAME_TICK,
            protocol.FRAME_ACK,
            protocol.FRAME_HEARTBEAT,
            protocol.FRAME_BYE,
            protocol.FRAME_ERROR,
        ) == (1, 2, 3, 4, 5, 6, 7, 8)


class TestFrameReader:
    def frames_of(self, reader):
        return list(reader.frames())

    def test_byte_at_a_time_reassembly(self):
        wire = protocol.encode_frame(
            protocol.FRAME_TICK, protocol.encode_tick(5)
        ) + protocol.encode_frame(protocol.FRAME_HEARTBEAT)
        reader = FrameReader()
        seen = []
        for i in range(len(wire)):
            reader.feed(wire[i : i + 1])
            seen.extend(reader.frames())
        assert seen == [
            (protocol.FRAME_TICK, protocol.encode_tick(5)),
            (protocol.FRAME_HEARTBEAT, b""),
        ]
        reader.close()  # at a frame boundary: nothing left over

    def test_multiple_frames_in_one_feed(self):
        wire = b"".join(
            protocol.encode_frame(protocol.FRAME_TICK, protocol.encode_tick(e))
            for e in range(3)
        )
        reader = FrameReader()
        reader.feed(wire)
        assert [
            protocol.decode_tick(payload)
            for _, payload in reader.frames()
        ] == [0, 1, 2]

    def test_two_frames_in_one_feed_then_one_split_across_feeds(self):
        """Each payload is its own ``bytes`` — one copy out of the buffer,
        whose view is released before the buffer shrinks (a live export
        would make the shrink raise ``BufferError``)."""
        payloads = [bytes(range(7)), b"", bytes(range(200, 256)) * 3]
        wire = [protocol.encode_frame(protocol.FRAME_EVIDENCE, p) for p in payloads]
        reader = FrameReader()
        reader.feed(wire[0] + wire[1] + wire[2][:9])
        got = self.frames_of(reader)
        reader.feed(wire[2][9:])
        got += self.frames_of(reader)
        assert got == [(protocol.FRAME_EVIDENCE, p) for p in payloads]
        assert all(type(payload) is bytes for _, payload in got)
        reader.close()

    def test_truncated_stream_raises_on_close(self):
        frame = protocol.encode_frame(
            protocol.FRAME_TICK, protocol.encode_tick(1)
        )
        reader = FrameReader()
        reader.feed(frame[:-3])
        assert self.frames_of(reader) == []
        with pytest.raises(TruncatedFrameError, match=f"with {len(frame) - 3} unparsed"):
            reader.close()

    def test_clean_boundary_close_is_silent(self):
        reader = FrameReader()
        reader.feed(protocol.encode_frame(protocol.FRAME_BYE))
        self.frames_of(reader)
        reader.close()

    def test_oversized_length_prefix_raises_immediately(self):
        reader = FrameReader()
        reader.feed(
            struct.pack(
                "<IB", protocol.MAX_FRAME_BYTES + 1, protocol.FRAME_EVIDENCE
            )
        )
        with pytest.raises(FrameTooLargeError):
            self.frames_of(reader)

    def test_unknown_frame_type_raises_immediately(self):
        reader = FrameReader()
        reader.feed(struct.pack("<IB", 0, 42))
        with pytest.raises(UnknownFrameError):
            self.frames_of(reader)

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameTooLargeError):
            protocol.encode_frame(
                protocol.FRAME_EVIDENCE,
                b"\x00" * (protocol.MAX_FRAME_BYTES + 1),
            )


class TestHandshakeValidation:
    def versioned_hello(self, version):
        body = json.dumps({"agent_id": "a0", "epoch_watermark": -1})
        return struct.pack("<4sH", FLEET_MAGIC, version) + body.encode()

    def test_version_mismatch_names_both_versions(self):
        with pytest.raises(VersionMismatchError) as excinfo:
            protocol.decode_hello(self.versioned_hello(99))
        assert excinfo.value.ours == FLEET_PROTOCOL_VERSION
        assert excinfo.value.theirs == 99
        assert "v99" in str(excinfo.value)
        assert f"v{FLEET_PROTOCOL_VERSION}" in str(excinfo.value)

    def test_version_mismatch_is_a_handshake_and_protocol_error(self):
        assert issubclass(VersionMismatchError, HandshakeError)
        assert issubclass(HandshakeError, FleetProtocolError)

    def test_bad_magic_rejected(self):
        payload = b"X007\x01\x00{}"
        with pytest.raises(HandshakeError, match="magic"):
            protocol.decode_hello(payload)

    def test_undecodable_body_rejected(self):
        payload = struct.pack(
            "<4sH", FLEET_MAGIC, FLEET_PROTOCOL_VERSION
        ) + b"\xff\xfe not json"
        with pytest.raises(HandshakeError):
            protocol.decode_hello(payload)

    def test_hello_requires_agent_id(self):
        payload = struct.pack(
            "<4sH", FLEET_MAGIC, FLEET_PROTOCOL_VERSION
        ) + b'{"agent_id": ""}'
        with pytest.raises(HandshakeError, match="agent_id"):
            protocol.decode_hello(payload)

    def test_welcome_requires_positive_credit(self):
        payload = struct.pack(
            "<4sH", FLEET_MAGIC, FLEET_PROTOCOL_VERSION
        ) + b'{"credit_bytes": 0}'
        with pytest.raises(HandshakeError, match="credit"):
            protocol.decode_welcome(payload)

    def test_error_frame_round_trips_as_peer_error(self):
        error = protocol.decode_error(
            protocol.encode_error("wire", "bad chunk")
        )
        assert error.code == "wire"
        assert "bad chunk" in str(error)

    def test_undecodable_error_frame_still_yields_a_peer_error(self):
        error = protocol.decode_error(b"\xff\xfe garbage")
        assert error.code == "undecodable"

    def test_short_handshake_rejected(self):
        with pytest.raises(HandshakeError, match="too short"):
            protocol.decode_welcome(FLEET_MAGIC)

    def test_welcome_acked_must_be_an_object(self):
        payload = struct.pack(
            "<4sH", FLEET_MAGIC, FLEET_PROTOCOL_VERSION
        ) + b'{"credit_bytes": 64, "acked": [1, 2]}'
        with pytest.raises(HandshakeError, match="acked"):
            protocol.decode_welcome(payload)


class TestFixedPayloads:
    def test_tick_round_trips(self):
        assert protocol.decode_tick(protocol.encode_tick(123456789)) == 123456789

    @pytest.mark.parametrize("decode", [protocol.decode_tick, protocol.decode_ack])
    def test_wrong_payload_length_rejected(self, decode):
        with pytest.raises(FleetProtocolError, match="bytes"):
            decode(b"\x00" * 7)


class TestEndpoints:
    @pytest.mark.parametrize(
        "text",
        ["tcp:127.0.0.1:9000", "tcp:::1:9000", "unix:/tmp/fleet.sock"],
    )
    def test_parse_round_trips(self, text):
        assert str(parse_endpoint(text)) == text

    def test_tcp_fields(self):
        endpoint = parse_endpoint("tcp:10.0.0.2:8125")
        assert endpoint == Endpoint(kind="tcp", host="10.0.0.2", port=8125)

    @pytest.mark.parametrize(
        "text",
        [
            "tcp:9000",  # missing host
            "tcp:host:notaport",
            "tcp:host:70000",  # out of range
            "carrier-pigeon:/coop",
            "unix:",
            "justtext",
        ],
    )
    def test_malformed_endpoints_rejected(self, text):
        with pytest.raises(ValueError):
            parse_endpoint(text)
