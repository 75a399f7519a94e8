"""Property-based test: ``Zero07Service.ingest_columns`` is per-event ingest.

Hypothesis draws a wire stream — epochs of paths over a few flow ids (so
flows are traced again, some right after their update), count updates with
and without a ``seq``, updates ahead of their flow's path — splits each
epoch into contiguous agent slices, cuts every slice into chunks of 1-24
events (some with two events swapped and one of them repeated inside the
chunk), interleaves the agents' chunks (an agent may run an epoch ahead),
redelivers windows of what an agent already sent, and now and then
checkpoints and restores the columns service.  Every chunk goes over its
agent's own wire stream into ``ingest_columns``; the oracle is a
dicts-engine service fed the same events through per-event ``ingest``, with
a ``stats`` read after every event (which admits it alone).  Reports,
records and the counters must be equal at every read.  The seen-seq
structure (``SeqRuns``) is checked against a Python set directly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.api import (  # noqa: E402
    Checkpoint,
    EpochTick,
    LinkRemap,
    PathEvidence,
    RetransmissionEvidence,
    WireDecoder,
    WireEncoder,
    Zero07Service,
)
from repro.api.wire import SeqRuns  # noqa: E402
from repro.discovery.agent import DiscoveredPath  # noqa: E402
from repro.routing.fivetuple import FiveTuple  # noqa: E402
from repro.testing import epoch_records, report_signature  # noqa: E402
from repro.topology.elements import DirectedLink  # noqa: E402

LINKS = [DirectedLink(f"s{i}", f"s{i + 1}") for i in range(10)]
COUNTERS = (
    "duplicate_events",
    "out_of_order_events",
    "retransmission_updates",
    "paths_ingested",
    "late_events",
)


def make_path(rng, flow_id: int, epoch: int) -> DiscoveredPath:
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple(f"10.0.0.{flow_id % 3}", "10.0.1.9", 1024 + flow_id, 443),
        src_host=f"h{flow_id % 4}",
        dst_host=f"h{4 + flow_id % 3}",
        links=rng.sample(LINKS, rng.choice((1, 2, 3, 4, 5, 8))),
        complete=flow_id % 5 != 0,
        retransmissions=rng.randint(1, 3),
        epoch=epoch,
    )


def epoch_stream(rng, epoch: int):
    """One epoch's events in seq order."""
    events = []
    for seq in range(rng.randint(1, 70)):
        flow = rng.randrange(12)
        if rng.random() < 0.7:
            events.append(PathEvidence(epoch, seq, make_path(rng, flow, epoch)))
        else:
            seqless = rng.random() < 0.1
            events.append(
                RetransmissionEvidence(
                    epoch, flow, rng.randint(1, 3), None if seqless else seq
                )
            )
    return events


def deliveries(rng, epochs: int, agents: int):
    """``(agent, epoch, chunk)`` in arrival order: each agent's contiguous
    slices chunked and sent in order, the agents interleaved, windows of
    what an agent already sent redelivered."""
    queues = [[] for _ in range(agents)]
    for epoch in range(epochs):
        events = epoch_stream(rng, epoch)
        cuts = sorted(rng.randint(0, len(events)) for _ in range(agents - 1))
        for agent, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(events)])):
            sent = []
            while lo < hi:
                step = rng.randint(1, 24)
                chunk = events[lo : lo + step]
                if rng.random() < 0.3:  # reordered, and a seq repeated inside
                    i, j = rng.randrange(len(chunk)), rng.randrange(len(chunk))
                    chunk[i], chunk[j] = chunk[j], chunk[i]
                    chunk.insert(rng.randrange(len(chunk) + 1), rng.choice(chunk))
                queues[agent].append((epoch, chunk))
                sent.extend(chunk)
                lo += step
                if rng.random() < 0.2:  # a reconnect redelivers a window
                    start = rng.randrange(len(sent))
                    window = sent[start : start + rng.randint(1, 30)]
                    queues[agent].append((epoch, window))
    out = []
    while any(queues):
        agent = rng.choice([k for k, queue in enumerate(queues) if queue])
        epoch, chunk = queues[agent].pop(0)
        out.append((agent, epoch, chunk))
    return out


@pytest.mark.parametrize("engine", ["arrays", "dicts"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), epochs=st.integers(1, 2), agents=st.integers(1, 3))
def test_ingest_columns_equals_per_event_ingest(engine, seed, epochs, agents):
    rng = random.Random(seed)
    columns, oracle = Zero07Service(engine=engine), Zero07Service(engine="dicts")
    encoders = [WireEncoder() for _ in range(agents)]
    decoders = [WireDecoder() for _ in range(agents)]
    remaps = [LinkRemap(decoder, columns.link_index) for decoder in decoders]
    delivered = set()

    def check(epoch):
        assert report_signature(columns.report(epoch)) == report_signature(
            oracle.report(epoch)
        )
        assert epoch_records(columns, epoch) == epoch_records(oracle, epoch)

    for agent, epoch, chunk in deliveries(rng, epochs, agents):
        run = decoders[agent].decode_columns(encoders[agent].encode_run(0, 0, epoch, chunk))
        columns.ingest_columns(epoch, run.columns(), remaps[agent].ids(run.lids))
        for event in chunk:
            oracle.ingest(event)
            oracle.stats  # admits the one-event run per event
        delivered.add(epoch)
        roll = rng.random()
        if roll < 0.15:
            check(rng.choice(sorted(delivered)))
        elif roll < 0.2:  # the columns service moves to a restored twin
            columns = Zero07Service.restore(
                Checkpoint.from_bytes(columns.checkpoint().to_bytes())
            )
            remaps = [LinkRemap(decoder, columns.link_index) for decoder in decoders]
    for epoch in sorted(delivered):
        check(epoch)
    for epoch in range(epochs):
        columns.ingest(EpochTick(epoch))
        oracle.ingest(EpochTick(epoch))
        check(epoch)
    for name in COUNTERS:
        assert getattr(columns.stats, name) == getattr(oracle.stats, name), name


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 400), max_size=40), max_size=40))
def test_seq_runs_hold_what_a_set_holds(steps):
    """Whole runs (any order, disjoint from what is held) merge lazily; a
    run's duplicates — seqs held, or repeated earlier in the run, never a
    negative one — are always what a Python set says."""
    runs, seen = SeqRuns(), set()
    for seqs in steps:
        expected, earlier = [], set()
        for seq in seqs:
            expected.append(seq >= 0 and (seq in seen or seq in earlier))
            earlier.add(seq)
        assert runs.duplicates(np.array(seqs, dtype=np.int64)).tolist() == expected
        fresh = list(dict.fromkeys(seq for seq in seqs if seq >= 0 and seq not in seen))
        runs.add_run(np.array(fresh, dtype=np.int64))
        seen.update(fresh)
        assert len(runs) == len(seen)
