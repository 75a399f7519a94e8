"""Unit battery for the binary evidence transport (:mod:`repro.api.wire`).

The codec is the process backend's and the fleet's correctness floor: every
event a worker or analyzer ingests came through ``WireEncoder.encode_run`` →
pipe or socket → ``WireDecoder``, and the columnar fleet core folds into an
:class:`EvidenceColumnStore`.  These tests pin the round-trip exactly, the
per-stream table discipline, the refusal of damaged messages, and the
store's clean/dirty semantics —
including the degenerate shapes (repeated links in one path, mixed runs,
out-of-order seqs) where a silent mismatch would survive the happy-path
equivalence suites.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.api import (
    EvidenceColumnStore,
    LinkRemap,
    PathEvidence,
    RetransmissionEvidence,
    WireDecoder,
    WireEncoder,
    WireProtocolError,
    evidence_to_dict,
)
from repro.api.wire import _HEADER
from repro.core.analysis import AnalysisAgent
from repro.core.arrays import LinkIndex
from repro.core.votes import PathTooLongError
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.testing import report_signature
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
        assert [evidence_to_dict(e) for e in events] == [
            evidence_to_dict(e) for e in run
        ]
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
        "lengths": lengths,
        "lids": lids,
        "names": lids + 4 * header["total_hops"],
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
        assert [evidence_to_dict(e) for e in events] == [
            evidence_to_dict(e) for e in mixed_run(n=4)
        ]


class TestEvidenceColumnStore:
    def agent_and_store(self):
        index = LinkIndex()
        agent = AnalysisAgent(engine="arrays", link_index=index)
        return agent, EvidenceColumnStore(index)

    def test_clean_epoch_tally_matches_replay(self):
        agent, store = self.agent_and_store()
        run = mixed_run(n=16)
        store.append_run(0, run[:20])
        store.append_run(0, run[20:])
        assert store.is_clean(0)
        tally = store.build_tally(0)
        by_tally = agent.analyze_tally(0, tally)
        by_replay = agent.analyze_epoch(
            0, [e.path for e in run if type(e) is PathEvidence]
        )
        assert report_signature(by_tally) == report_signature(by_replay)

    def test_repeated_link_in_one_path_counts_support_once(self):
        """A routing loop repeats a link inside one path; support is
        distinct (path, link) pairs, so the repeat must not double-count."""
        agent, store = self.agent_and_store()
        loopy = make_path(1, [L[0], L[1], L[0]])
        run = [
            PathEvidence(epoch=0, seq=0, path=loopy),
            PathEvidence(epoch=0, seq=1, path=make_path(2, L[:2])),
        ]
        store.append_run(0, run)
        by_tally = agent.analyze_tally(0, store.build_tally(0))
        by_replay = agent.analyze_epoch(0, [loopy, run[1].path])
        assert report_signature(by_tally) == report_signature(by_replay)

    def test_seq_regression_marks_dirty_without_mutating(self):
        _, store = self.agent_and_store()
        store.append_run(0, [PathEvidence(epoch=0, seq=5, path=make_path(1, L[:2]))])
        store.append_run(0, [PathEvidence(epoch=0, seq=5, path=make_path(2, L[:2]))])
        assert not store.is_clean(0)
        assert store.build_tally(0) is None

    def test_update_before_later_retrace_marks_dirty(self):
        _, store = self.agent_and_store()
        run = [
            PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2])),
            RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=2, seq=1),
            PathEvidence(epoch=0, seq=2, path=make_path(1, L[2:4])),
            RetransmissionEvidence(epoch=0, flow_id=1, retransmissions=1, seq=1),
        ]
        store.append_run(0, run)
        assert not store.is_clean(0)

    def test_update_after_path_lands_on_the_path_row(self):
        agent, store = self.agent_and_store()
        path = make_path(7, L[:3], retransmissions=1)
        run = [
            PathEvidence(epoch=0, seq=0, path=path),
            RetransmissionEvidence(epoch=0, flow_id=7, retransmissions=4, seq=1),
        ]
        store.append_run(0, run)
        replayed = make_path(7, L[:3], retransmissions=5)
        by_tally = agent.analyze_tally(0, store.build_tally(0))
        by_replay = agent.analyze_epoch(0, [replayed])
        assert report_signature(by_tally) == report_signature(by_replay)

    def test_pop_forgets_the_epoch_and_clears_dirty(self):
        _, store = self.agent_and_store()
        store.append_run(0, [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2]))])
        store.mark_dirty(0)
        store.pop(0)
        assert store.is_clean(0)
        # a popped epoch rebuilds as empty, exactly like a gap epoch
        assert store.build_tally(0).items() == []

    def test_epochs_are_independent(self):
        agent, store = self.agent_and_store()
        store.append_run(0, [PathEvidence(epoch=0, seq=0, path=make_path(1, L[:2]))])
        store.mark_dirty(0)
        store.append_run(1, [PathEvidence(epoch=1, seq=0, path=make_path(2, L[1:4]))])
        assert not store.is_clean(0)
        assert store.is_clean(1)
        assert store.build_tally(1) is not None

    # -- one accumulator behind both entries ---------------------------
    @staticmethod
    def columns_of(run, index, epoch=0):
        """Ship ``run`` over a fresh wire stream: ``(WireRun, remapped ids)``."""
        decoder = WireDecoder()
        wire_run = decoder.decode_columns(WireEncoder().encode_run(0, 0, epoch, run))
        return wire_run, LinkRemap(decoder, index).ids(wire_run.lids)

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

    def test_append_run_and_append_columns_build_equal_tallies(self):
        run = mixed_run(n=16)
        by_objects, index = EvidenceColumnStore(LinkIndex()), LinkIndex()
        by_columns = EvidenceColumnStore(index)
        for chunk in (run[:9], run[9:20], run[20:]):
            by_objects.append_run(0, chunk)
            by_columns.append_columns(0, *self.columns_of(chunk, index))
        assert by_columns.is_clean(0)
        assert self.tally_state(by_columns.build_tally(0)) == self.tally_state(
            by_objects.build_tally(0)
        )

    def test_built_tally_is_unaffected_by_later_appends(self):
        index = LinkIndex()
        agent = AnalysisAgent(engine="arrays", link_index=index)
        store = EvidenceColumnStore(index)
        run = mixed_run(n=16)
        store.append_run(0, run[:12])
        built = store.build_tally(0)
        before = self.tally_state(built), report_signature(agent.analyze_tally(0, built))
        store.append_run(0, run[12:20])  # paths + updates of earlier flows
        store.append_columns(0, *self.columns_of(run[20:], index))
        store.append_run(
            0, [RetransmissionEvidence(epoch=0, flow_id=0, retransmissions=9, seq=99)]
        )
        assert store.is_clean(0)
        assert store.build_tally(0).num_flows == 16 > built.num_flows
        assert (
            self.tally_state(built),
            report_signature(agent.analyze_tally(0, built)),
        ) == before
