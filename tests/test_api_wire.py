"""Unit battery for the binary evidence transport (:mod:`repro.api.wire`).

The codec is the process backend's and the fleet's correctness floor: every
event a worker or analyzer ingests came through ``WireEncoder.encode_run`` →
pipe or socket → ``WireDecoder``, and the fleet analyzer admits its columns
with ``Zero07Service.ingest_columns``.  These tests pin the round-trip
exactly, the per-stream table discipline, the refusal of damaged messages,
and the admission of decoded columns —
including the degenerate shapes (repeated links in one path, mixed runs,
out-of-order seqs) where a silent mismatch would survive the happy-path
equivalence suites.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pytest

from repro.api import (
    Checkpoint,
    EpochTick,
    LinkRemap,
    PathEvidence,
    RetransmissionEvidence,
    WireDecoder,
    WireEncoder,
    WireProtocolError,
    Zero07Service,
)
from repro.api.wire import _HEADER, EvidenceColumnStore
from repro.core.analysis import AnalysisAgent
from repro.core.arrays import LinkIndex
from repro.core.votes import PathTooLongError
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.testing import epoch_records, report_signature
from repro.topology.elements import DirectedLink

L = [DirectedLink(f"s{i}", f"s{i + 1}") for i in range(6)]


def make_path(flow_id, links, retransmissions=0, src_host="h0", epoch=0):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1024 + flow_id, 443),
        src_host=src_host,
        dst_host="h9",
        links=list(links),
        complete=True,
        retransmissions=retransmissions,
        epoch=epoch,
    )


def mixed_run(epoch=0, n=12):
    events = []
    for i in range(n):
        events.append(
            PathEvidence(
                epoch=epoch,
                seq=2 * i,
                path=make_path(i, L[i % 3 : i % 3 + 3], src_host=f"h{i % 4}"),
            )
        )
        events.append(
            RetransmissionEvidence(
                epoch=epoch, flow_id=i, retransmissions=1 + i % 3, seq=2 * i + 1
            )
        )
    return events


class TestCodecRoundTrip:
    def test_mixed_run_round_trips_exactly(self):
        encoder = WireEncoder(streams=1)
        decoder = WireDecoder()
        run = mixed_run()
        shard, epoch, events, seqs = decoder.decode(
            memoryview(encoder.encode_run(0, 3, 0, run))
        )
        assert (shard, epoch) == (3, 0)
        assert events == run
        assert seqs.tolist() == [e.seq for e in run]

    def test_seq_less_updates_round_trip_as_none(self):
        encoder = WireEncoder(streams=1)
        decoder = WireDecoder()
        run = [
            PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])),
            RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=2),
        ]
        _, _, events, _ = decoder.decode(memoryview(encoder.encode_run(0, 0, 0, run)))
        assert events[1].seq is None

    def test_table_deltas_are_incremental_across_messages(self):
        encoder = WireEncoder(streams=1)
        decoder = WireDecoder()
        first = encoder.encode_run(
            0, 0, 0, [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:3]))]
        )
        second = encoder.encode_run(
            0, 0, 0, [PathEvidence(epoch=0, seq=1, path=make_path(2, L[2:5]))]
        )
        # the second message must be strictly smaller in table payload: it
        # only carries the links/names the stream has not seen yet.
        assert len(second) < len(first)
        decoder.decode(memoryview(first))
        _, _, events, _ = decoder.decode(memoryview(second))
        assert events[0].path.links == L[2:5]

    def test_decoding_out_of_order_raises(self):
        encoder = WireEncoder(streams=1)
        first = encoder.encode_run(
            0, 0, 0, [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:3]))]
        )
        second = encoder.encode_run(
            0, 0, 0, [PathEvidence(epoch=0, seq=1, path=make_path(2, L[3:5]))]
        )
        decoder = WireDecoder()
        with pytest.raises(WireProtocolError):
            decoder.decode(memoryview(second))
        # and the skipped message is not silently recoverable afterwards
        fresh = WireDecoder()
        fresh.decode(memoryview(first))
        fresh.decode(memoryview(second))

    def test_streams_maintain_independent_watermarks(self):
        encoder = WireEncoder(streams=2)
        run = [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:3]))]
        message_a = encoder.encode_run(0, 0, 0, run)
        message_b = encoder.encode_run(1, 0, 0, run)
        # stream 1 never saw the tables, so its message carries the full delta
        assert len(message_b) == len(message_a)
        for message in (message_a, message_b):
            _, _, events, _ = WireDecoder().decode(memoryview(message))
            assert events[0].path.links == L[:3]

    def test_evidence_subclass_is_rejected(self):
        # the codec transports exactly the two concrete evidence kinds; a
        # subclass would decode as its base and silently change behavior.
        class Custom(RetransmissionEvidence):
            pass

        encoder = WireEncoder(streams=1)
        with pytest.raises(WireProtocolError):
            encoder.encode_run(
                0, 0, 0, [Custom(epoch=0, flow_id=1, retransmissions=1, seq=0)]
            )

    def test_a_link_text_that_would_decode_as_another_link_is_refused(self):
        """Tables spell links ``"src->dst"`` and decoding splits at the first
        ``->``: ``"a->b" -> "c"`` would come back as ``"a" -> "b->c"``, so the
        encoder refuses it, naming the link.  Endpoints that merely hold
        ``-`` or ``>`` round trip."""
        odd = [DirectedLink("a-", ">b"), DirectedLink(">b", "a-"), DirectedLink("-", ">")]
        run = [PathEvidence(epoch=0, seq=0, path=make_path(1, odd))]
        encoder, decoder = WireEncoder(streams=1), WireDecoder()
        _, _, events, _ = decoder.decode(encoder.encode_run(0, 0, 0, run))
        assert events == run and decoder.links_table == odd

        bad = DirectedLink("a->b", "c")
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            encoder.encode_run(0, 0, 0, [PathEvidence(0, 1, make_path(2, [bad]))])

    def test_a_refused_run_leaves_no_table_entry_behind(self):
        """A run refused for one link text interns neither its links nor its
        names: the encoder's next message, on every stream, is the one an
        encoder that never saw the refused run writes."""
        first = [PathEvidence(0, 0, make_path(1, L[:2]))]
        bad = DirectedLink("a->b", "c")
        refused = [PathEvidence(0, 1, make_path(2, [L[3], bad], src_host="h7"))]
        after = [PathEvidence(0, 2, make_path(3, L[1:4], src_host="h8"))]
        encoder, fresh = WireEncoder(streams=2), WireEncoder(streams=2)
        for stream in (0, 1):
            assert encoder.encode_run(stream, 0, 0, first) == fresh.encode_run(
                stream, 0, 0, first
            )
        with pytest.raises(ValueError, match="cannot be written"):
            encoder.encode_run(0, 0, 0, refused)
        for stream in (0, 1):
            assert encoder.encode_run(stream, 0, 0, after) == fresh.encode_run(
                stream, 0, 0, after
            )

    @pytest.mark.parametrize("where", ["name", "link"])
    def test_a_nul_in_a_table_entry_is_refused_before_any_table_grows(self, where):
        """Table entries travel NUL-separated: a name or link endpoint
        holding ``\\x00`` would decode as two entries and leave the stream
        undecodable.  The encoder refuses the run, names the entry, and the
        stream's next run decodes."""
        if where == "name":
            refused = [PathEvidence(0, 1, make_path(2, L[2:4], src_host="x\x00y"))]
        else:
            links = [L[2], DirectedLink("a\x00c", "b")]
            refused = [PathEvidence(0, 1, make_path(2, links, src_host="h7"))]
        first = [PathEvidence(0, 0, make_path(1, L[:2]))]
        after = [PathEvidence(0, 2, make_path(3, L[1:4], src_host="h8"))]
        encoder, decoder = WireEncoder(streams=1), WireDecoder()
        decoder.decode(encoder.encode_run(0, 0, 0, first))
        with pytest.raises(ValueError, match="separator"):
            encoder.encode_run(0, 0, 0, refused)
        _, _, events, _ = decoder.decode(encoder.encode_run(0, 0, 0, after))
        assert events == after
        assert decoder.links_table == L[:4]

    def test_bad_magic_is_rejected(self):
        with pytest.raises(WireProtocolError):
            WireDecoder().decode(memoryview(bytes(_HEADER.size)))

    def test_a_path_longer_than_eight_hops_is_rejected_before_the_tables_grow(self):
        walk = [DirectedLink(f"w{i}", f"w{i + 1}") for i in range(9)]
        message = WireEncoder(streams=1).encode_run(
            0,
            0,
            0,
            [
                PathEvidence(epoch=0, seq=0, path=make_path(1, L[:3])),
                PathEvidence(epoch=0, seq=1, path=make_path(2, walk)),
            ],
        )
        decoder = WireDecoder()
        with pytest.raises(PathTooLongError, match="9 links") as raised:
            decoder.decode_columns(memoryview(message))
        assert raised.value.hops == 9
        assert decoder.links_table == []


#: header fields, in ``_HEADER`` order.
_FIELDS = (
    "magic", "epoch", "shard", "n_events", "n_paths", "total_hops",
    "link_lo", "link_hi", "name_lo", "name_hi", "links_len", "names_len",
)


def _header(message):
    return dict(zip(_FIELDS, _HEADER.unpack_from(message)))


def _with_header(message, **changes):
    header = _header(message)
    for name, change in changes.items():
        header[name] = change(header[name])
    return _HEADER.pack(*header.values()) + message[_HEADER.size :]


def _with_value(message, column, index, change, fmt="<i"):
    """``message`` with entry ``index`` of ``column`` replaced by ``change``'s."""
    header = _header(message)
    kinds = _HEADER.size + header["links_len"] + header["names_len"]
    lengths = kinds + 9 * header["n_events"] + 24 * header["n_paths"]
    lids = lengths + 4 * header["n_paths"]
    starts = {
        "kinds": kinds,
        "seqs": kinds + header["n_events"],
        "retrans": kinds + 9 * header["n_events"] + 8 * header["n_paths"],
        "lengths": lengths,
        "lids": lids,
        "names": lids + 4 * header["total_hops"],
        "ports": lids + 4 * header["total_hops"] + 16 * header["n_paths"],
        "upd_counts": len(message) - 8 * (header["n_events"] - header["n_paths"]),
    }
    size = struct.calcsize(fmt)
    at = starts[column] + size * index
    (value,) = struct.unpack_from(fmt, message, at)
    return message[:at] + struct.pack(fmt, change(value)) + message[at + size :]


#: damage a message can take in transit; the decoder refuses every one.
DAMAGE = {
    "hop id -1": lambda m: _with_value(m, "lids", 0, lambda v: -1),
    "hop id past the table": lambda m: _with_value(
        m, "lids", 0, lambda v: _header(m)["link_hi"]
    ),
    "name id past the table": lambda m: _with_value(
        m, "names", 0, lambda v: _header(m)["name_hi"]
    ),
    "more events than bytes": lambda m: _with_header(m, n_events=lambda v: v + 1),
    "more paths than events": lambda m: _with_header(
        m, n_paths=lambda v: _header(m)["n_events"] + 1
    ),
    "a negative path count": lambda m: _with_header(m, n_paths=lambda v: -1),
    "a trailing byte": lambda m: m + b"\x00",
    "a missing byte": lambda m: m[:-1],
    "a path seq below 0": lambda m: _with_value(m, "seqs", 0, lambda v: -1, "<q"),
    "a path's count below 0": lambda m: _with_value(
        m, "retrans", 0, lambda v: -1, "<q"
    ),
    "an update's count below 0": lambda m: _with_value(
        m, "upd_counts", 0, lambda v: -1, "<q"
    ),
    "a kind outside 0/1": lambda m: _with_value(m, "kinds", 0, lambda v: 2, "<B"),
    "kinds off the path count": lambda m: _with_value(
        m, "kinds", 0, lambda v: 1 - v, "<B"
    ),
    "a path without links": lambda m: _with_value(
        _with_value(m, "lengths", 0, lambda v: 0), "lengths", 1, lambda v: v + 3
    ),
    "lengths off the hop count": lambda m: _with_value(m, "lengths", 0, lambda v: v + 1),
    "a link range past its delta": lambda m: _with_header(m, link_hi=lambda v: v + 1),
    "a name range short of its delta": lambda m: _with_header(
        m, name_hi=lambda v: v - 1
    ),
    "a table delta out of order": lambda m: _with_header(m, link_lo=lambda v: v + 1),
    "a link text without '->'": lambda m: m.replace(b"s0->s1", b"s0--s1", 1),
    "a source port past 65535": lambda m: _with_value(m, "ports", 0, lambda v: 70_000),
    "a negative destination port": lambda m: _with_value(
        m, "ports", _header(m)["n_paths"], lambda v: -1
    ),
    "a protocol past 255": lambda m: _with_value(
        m, "ports", 2 * _header(m)["n_paths"], lambda v: 300
    ),
}


class TestDamagedMessages:
    """A message is checked whole before the stream's tables grow: damage is
    a ``WireProtocolError`` — never numpy's bare ``ValueError``, never an id
    that wraps around to another table entry."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_is_refused_before_the_tables_grow(self, damage):
        message = WireEncoder(streams=1).encode_run(0, 0, 0, mixed_run(n=4))
        decoder = WireDecoder()
        with pytest.raises(WireProtocolError):
            decoder.decode_columns(DAMAGE[damage](message))
        assert decoder.links_table == []
        # nothing of the damaged message was kept: the intact one decodes
        _, _, events, _ = decoder.decode(message)
        assert events == mixed_run(n=4)


class TestIngestColumns:
    """``Zero07Service.ingest_columns`` of decoded runs against ``ingest_batch``
    of the same events: one admission behind both entries."""

    @staticmethod
    def deliver(service, decoder, run, epoch=0):
        """Ship ``run`` over ``decoder``'s wire stream into ``service``."""
        wire_run = decoder.decode_columns(
            decoder.encoder.encode_run(0, 0, epoch, run)
        )
        remap = LinkRemap(decoder, service.link_index)
        return service.ingest_columns(epoch, wire_run.columns(), remap.ids(wire_run.lids))

    @staticmethod
    def stream():
        decoder = WireDecoder()
        decoder.encoder = WireEncoder()
        return decoder

    @staticmethod
    def tally_state(tally):
        """Keyed by link, so index growth after a snapshot cannot matter."""
        link_of = tally.index.link_of
        votes, support = tally.votes_array().tolist(), tally.support_array().tolist()
        return (
            [(link_of(i), votes[i], support[i]) for i in tally.voted_ids().tolist()],
            tally.items(),
            tally.flow_ids_array().tolist(),
            tally.retransmissions_array().tolist(),
        )

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0, 0)])
    def test_objects_and_columns_admit_to_the_same_state(self, order, engine):
        """Chunks in order, ahead of a gap and redelivered: equal tallies,
        reports, counters and checkpoints (link tables included)."""
        run = mixed_run(n=16)
        chunks = (run[:9], run[9:20], run[20:])
        by_objects, by_columns = Zero07Service(engine=engine), Zero07Service(engine=engine)
        decoder = self.stream()
        for k in order:
            by_objects.ingest_batch(chunks[k])
            self.deliver(by_columns, decoder, chunks[k])
        report = by_columns.report(0)
        if engine == "arrays":
            assert self.tally_state(report.tally) == self.tally_state(
                by_objects.report(0).tally
            )
        assert report_signature(report) == report_signature(by_objects.report(0))
        assert by_columns.stats == by_objects.stats
        assert by_columns.checkpoint() == by_objects.checkpoint()

    def test_repeated_link_in_one_path_counts_support_once(self):
        """A routing loop repeats a link inside one path; support is
        distinct (path, link) pairs, so the repeat must not double-count."""
        loopy = make_path(1, [L[0], L[1], L[0]])
        run = [PathEvidence(epoch=0, seq=seq, path=make_path(seq, L[:2])) for seq in range(2, 9)]
        service = Zero07Service()
        self.deliver(service, self.stream(), [PathEvidence(epoch=0, seq=0, path=loopy)] + run)
        by_replay = AnalysisAgent(engine="arrays").analyze_epoch(
            0, [loopy] + [e.path for e in run]
        )
        assert report_signature(service.report(0)) == report_signature(by_replay)

    def test_an_update_after_its_path_lands_on_the_path_row(self):
        path = make_path(7, L[:3], retransmissions=1)
        run = [PathEvidence(epoch=0, seq=0, path=path)] + [
            RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=1, seq=seq)
            for seq in range(1, 9)
        ]
        service = Zero07Service()
        self.deliver(service, self.stream(), run)
        (record,) = epoch_records(service, 0)
        assert record[2] == 9

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("retraces", [1, 3])
    @pytest.mark.parametrize("delivery", ["columns", "batch"])
    def test_k_retraces_after_updates_fold_in_one_piece(
        self, delivery, retraces, engine, monkeypatch
    ):
        """Paths that re-trace a flow after the flow's count update in the
        same run do not cut it: each update binds to the row bound at its
        position, the run folds whole, and the whole equals admitting the
        events one at a time."""
        run = mixed_run(n=6)  # each path followed by its flow's update
        for flow in range(retraces):  # a re-trace, its update, the next flow's
            run.append(PathEvidence(0, 20 + 3 * flow, make_path(flow, L[3:5])))
            run.append(RetransmissionEvidence(0, flow, 4, seq=21 + 3 * flow))
            run.append(RetransmissionEvidence(0, flow + 1, 2, seq=22 + 3 * flow))
        run.append(RetransmissionEvidence(0, 50, 3, seq=40))  # ahead of its path
        run.append(PathEvidence(0, 41, make_path(50, L[:2])))
        run += [  # re-traces below and above their flow's seq, then updates
            PathEvidence(0, 60, make_path(60, L[:2])),
            PathEvidence(0, 55, make_path(60, L[2:4])),
            RetransmissionEvidence(0, 60, 5, seq=61),
            PathEvidence(0, 70, make_path(61, L[:2])),
            PathEvidence(0, 75, make_path(61, L[1:3])),
            RetransmissionEvidence(0, 61, 6, seq=76),
        ]
        folds = []
        fold = Zero07Service._fold
        monkeypatch.setattr(
            Zero07Service, "_fold", lambda self, *args: folds.append(fold(self, *args))
        )
        service = Zero07Service(engine=engine)
        if delivery == "columns":
            self.deliver(service, self.stream(), run)
        else:
            service.ingest_batch(run)
        assert len(folds) == 1
        per_event = Zero07Service(engine=engine)
        for event in run:
            per_event.ingest(event)
            per_event.stats  # admits the one-event run
        assert service.stats.as_dict() == per_event.stats.as_dict()
        assert report_signature(service.report(0)) == report_signature(
            per_event.report(0)
        )
        assert epoch_records(service, 0) == epoch_records(per_event, 0)
        assert service.checkpoint().to_bytes() == per_event.checkpoint().to_bytes()

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_one_mask_drops_repeats_and_seen_events_but_no_seq_less_update(
        self, engine
    ):
        """A run's repeated seqs (a path's seq taken again by an update
        included) and the seqs its epoch saw are dropped; its seq-less
        updates all apply and never join the seen seqs."""
        seen = mixed_run(n=2)  # seqs 0..3
        run = [
            PathEvidence(0, 4, make_path(7, L[:2])),
            RetransmissionEvidence(0, 7, 2),  # seq-less
            PathEvidence(0, 1, make_path(8, L[1:3])),  # seen: dropped
            RetransmissionEvidence(0, 7, 5, seq=4),  # a repeat of the path's 4
            RetransmissionEvidence(0, 7, 3),  # seq-less again
            PathEvidence(0, 5, make_path(9, L[2:4])),
            PathEvidence(0, 5, make_path(9, L[2:4])),  # a repeat
        ]
        service, per_event = Zero07Service(engine=engine), Zero07Service(engine=engine)
        self.deliver(service, self.stream(), seen)
        assert self.deliver(service, self.stream(), run) == 3
        for event in seen + run:
            per_event.ingest(event)
            per_event.stats  # admits the one-event run
        assert service.stats.as_dict() == per_event.stats.as_dict()
        assert service.stats.duplicate_events == 3
        assert {seq: count for seq, _, count, _ in epoch_records(service, 0)}[4] == 2 + 3
        blob = service.checkpoint().to_bytes()
        assert blob == per_event.checkpoint().to_bytes()
        # a seq-less update in the consumed seqs would be refused here
        restored = Zero07Service.restore(Checkpoint.from_bytes(blob))
        assert epoch_records(restored, 0) == epoch_records(service, 0)

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    def test_a_straddling_redelivery_drops_only_what_was_seen(self, engine):
        run = mixed_run(n=16)
        service, decoder = Zero07Service(engine=engine), self.stream()
        assert self.deliver(service, decoder, run[:20]) == 0
        assert self.deliver(service, decoder, run[10:]) == 10
        assert self.deliver(service, decoder, run[:8]) == 8
        whole = Zero07Service()
        whole.ingest_batch(run)
        assert service.stats.duplicate_events == 18
        assert report_signature(service.report(0)) == report_signature(whole.report(0))

    def test_a_finalized_epoch_counts_a_late_run(self):
        service = Zero07Service()
        service.ingest(EpochTick(0))
        assert self.deliver(service, self.stream(), mixed_run(n=4)) == 0
        assert service.stats.late_events == 8


def _p(seq, flow=7, hop=0):
    return PathEvidence(0, seq, make_path(flow, L[hop : hop + 2]))


def _u(seq, count, flow=7):
    return RetransmissionEvidence(0, flow, count, seq=seq)


#: case -> (runs delivered before, the run, runs after, flow 7's rows as
#: seq -> count at the end).  Each count is a distinct power of two, so a
#: row's count names the updates it took.
_BINDING_CASES = {
    # (a) no path of the flow in the run: its tally row, or buffered counts
    "a-tally-row": ([[_p(5)]], [_u(10, 1), _u(11, 2)], [], {5: 3}),
    "a-no-row": ([], [_u(10, 1)], [[_p(20), _p(21, hop=2)]], {20: 1, 21: 0}),
    # (b) one path in the run and no tally row: that path's row
    "b-path-first": ([], [_p(10), _u(11, 1), _u(12, 2)], [], {10: 3}),
    "b-update-first": ([], [_u(9, 1), _p(10), _u(11, 2)], [], {10: 3}),
    # (c) a tally row and an in-run re-trace, or two paths in the run
    "c-higher-retrace-first": ([[_p(5)]], [_p(10, hop=2), _u(11, 1)], [], {5: 0, 10: 1}),
    "c-higher-retrace-after": ([[_p(5)]], [_u(9, 1), _p(10, hop=2), _u(11, 2)], [], {5: 1, 10: 2}),
    "c-lower-retrace-first": ([[_p(20)]], [_p(10, hop=2), _u(11, 1)], [], {20: 1, 10: 0}),
    "c-lower-retrace-after": ([[_p(20)]], [_u(9, 1), _p(10, hop=2), _u(11, 2)], [], {20: 3, 10: 0}),
    "c-two-paths-rising": (
        [], [_u(8, 1), _p(10), _u(11, 2), _p(12, hop=2), _u(13, 4)], [], {10: 3, 12: 4}
    ),
    "c-two-paths-falling": (
        [], [_u(8, 1), _p(12), _u(13, 2), _p(10, hop=2), _u(14, 4)], [], {12: 7, 10: 0}
    ),
    "c-seq-less": (
        [[_p(5)]], [_u(None, 1), _p(10, hop=2), _u(None, 2), _u(11, 4)], [], {5: 1, 10: 6}
    ),
}


class TestBindingClasses:
    """``bind_updates`` splits a run's count updates three ways — (a) no path
    of the flow in the run, (b) one path and no tally row, (c) the rest, by
    the position-ordered pass — and every class binds as admitting the
    events one at a time does.  Unrelated paths ahead of and behind flow 7
    make the run's path flows ascending or not, which the class test reads."""

    @pytest.mark.parametrize("engine", ["arrays", "dicts"])
    @pytest.mark.parametrize("flows", ["ascending", "unsorted"])
    @pytest.mark.parametrize("case", sorted(_BINDING_CASES))
    def test_each_class_binds_as_one_event_at_a_time(self, case, flows, engine):
        before, run, after, rows = _BINDING_CASES[case]
        low, high = _p(100, flow=3, hop=3), _p(101, flow=40, hop=4)
        run = [low, *run, high] if flows == "ascending" else [high, *run, low]
        service, decoder = Zero07Service(engine=engine), TestIngestColumns.stream()
        per_event = Zero07Service(engine=engine)
        for chunk in [*before, run, *after]:
            TestIngestColumns.deliver(service, decoder, chunk)
            for event in chunk:
                per_event.ingest(event)
                per_event.stats  # admits the one-event run
        assert {
            seq: count for seq, flow, count, _ in epoch_records(service, 0) if flow == 7
        } == rows
        assert report_signature(service.report(0)) == report_signature(
            per_event.report(0)
        )
        assert service.stats.as_dict() == per_event.stats.as_dict()
        assert service.checkpoint().to_bytes() == per_event.checkpoint().to_bytes()


class TestPathSeqs:
    """A path's seq is an integer ``>= 0`` at every entry point, checked
    before any state changes (wire messages and checkpoint columns are
    refused whole: ``DAMAGE`` and the checkpoint's damaged-column tests)."""

    @pytest.mark.parametrize("seq", [None, -1])
    @pytest.mark.parametrize("entry", ["ingest", "ingest_batch", "ingest_run"])
    def test_a_path_without_a_seq_raises_before_any_state_changes(self, entry, seq):
        run = mixed_run(n=5)[:9] + [PathEvidence(0, seq, make_path(99, L[:2]))]
        service, reference = Zero07Service(), Zero07Service()
        with pytest.raises(ValueError, match="seq"):
            if entry == "ingest":
                reference.ingest_batch(run[:9])  # ingested before the bad one
                for event in run:
                    service.ingest(event)
            elif entry == "ingest_batch":
                service.ingest_batch(run)
            else:
                service.ingest_run(0, run)
        assert service.stats.as_dict() == reference.stats.as_dict()
        assert service.checkpoint().to_bytes() == reference.checkpoint().to_bytes()
        assert report_signature(service.report(0)) == report_signature(
            reference.report(0)
        )


def test_the_column_store_name_is_a_plain_service_underneath():
    """``EvidenceColumnStore`` keeps the ruler's wire replay running: runs in,
    a snapshot of the tally a report reads out, the epoch forgotten by
    ``pop``."""
    index = LinkIndex()
    store = EvidenceColumnStore(index)
    run = mixed_run(n=12)
    store.append_run(0, run)
    tally = store.build_tally(0)
    assert tally.index is index and tally.num_flows == 12
    reference = Zero07Service()
    reference.ingest_batch(run)
    by_store = AnalysisAgent(engine="arrays", link_index=index).analyze_tally(0, tally)
    assert report_signature(by_store) == report_signature(reference.report(0))
    store.append_run(0, mixed_run(n=16))  # flows 12..15 are new
    assert tally.num_flows == 12  # a snapshot: later runs do not reach it
    store.pop(0)
    assert store.build_tally(0).num_flows == 0
