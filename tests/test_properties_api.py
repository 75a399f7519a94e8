"""Property-based tests: streamed ingestion is delivery-order independent.

Hypothesis drives random evidence workloads (random paths over a small link
pool, random retransmission splits, several epochs) through the streaming
service under random *chunkings*, *epoch interleavings* and full *event
permutations*, and checks that every materialized report is bit-identical to
the batch analysis of the same evidence — on both analysis engines.  The
sequence numbers carried by :class:`~repro.api.events.PathEvidence` are what
make this hold: the service re-establishes discovery order no matter how the
transport scrambled delivery.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.api import (  # noqa: E402
    Checkpoint,
    PathEvidence,
    RetransmissionEvidence,
    ShardedService,
    Zero07Service,
)
from repro.core.analysis import AnalysisAgent  # noqa: E402
from repro.discovery.agent import DiscoveredPath  # noqa: E402
from repro.routing.fivetuple import FiveTuple  # noqa: E402
from repro.testing import evidence_document, report_signature  # noqa: E402
from repro.topology.elements import DirectedLink  # noqa: E402

#: a small pool of directed links paths are drawn from.
LINKS = [DirectedLink(f"s{i}", f"s{i + 1}") for i in range(8)]

NUM_EPOCHS = 2


def make_path(flow_id: int, link_ids, retransmissions: int, epoch: int) -> DiscoveredPath:
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("10.0.0.1", "10.0.0.2", 1024 + flow_id, 443),
        src_host=f"h{flow_id % 3}",
        dst_host="h9",
        links=[LINKS[i] for i in link_ids],
        complete=True,
        retransmissions=retransmissions,
        epoch=epoch,
    )


#: one flow: a non-empty ordered set of link ids plus a retransmission count.
flows = st.tuples(
    st.lists(
        st.integers(min_value=0, max_value=len(LINKS) - 1),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    st.integers(min_value=1, max_value=4),
)

workloads = st.lists(
    st.lists(flows, min_size=0, max_size=6),
    min_size=NUM_EPOCHS,
    max_size=NUM_EPOCHS,
)

engines = st.sampled_from(["arrays", "dicts"])
seeds = st.randoms(use_true_random=False)
checkpoint_codecs = st.sampled_from(["memory", "bytes", "json"])


def through_codec(checkpoint: Checkpoint, codec: str) -> Checkpoint:
    """The checkpoint as held in memory, or after a serialization round trip."""
    if codec == "bytes":
        return Checkpoint.from_bytes(checkpoint.to_bytes())
    if codec == "json":
        return Checkpoint.from_json(checkpoint.to_json())
    return checkpoint


def build_evidence(workload, sequence_updates=False):
    """Expand a workload into (paths_by_epoch, evidence events without ticks).

    Each flow's retransmission count ``k`` is split into the initial path
    evidence (count 1) plus ``k - 1`` separate retransmission updates — the
    way a live monitoring agent would emit it.  With ``sequence_updates``
    the updates share the epoch's seq space with the paths (as the monitoring
    bridge numbers them), which lets a service recognise a redelivered one.
    """
    paths_by_epoch = {}
    events = []
    for epoch, epoch_flows in enumerate(workload):
        paths = []
        seq = 0
        for index, (link_ids, retrans) in enumerate(epoch_flows):
            flow_id = 100 * epoch + index
            paths.append(make_path(flow_id, link_ids, retrans, epoch))
            events.append(
                PathEvidence(
                    epoch=epoch,
                    seq=seq,
                    path=make_path(flow_id, link_ids, 1, epoch),
                )
            )
            seq += 1
            for _ in range(retrans - 1):
                events.append(
                    RetransmissionEvidence(
                        epoch=epoch,
                        flow_id=flow_id,
                        seq=seq if sequence_updates else None,
                    )
                )
                seq += sequence_updates
        paths_by_epoch[epoch] = paths
    return paths_by_epoch, events


@given(workload=workloads, engine=engines, rng=seeds, chunk=st.integers(1, 5))
def test_any_permutation_and_chunking_matches_batch(workload, engine, rng, chunk):
    """Shuffled + chunked delivery across interleaved epochs == batch reports."""
    paths_by_epoch, events = build_evidence(workload)
    rng.shuffle(events)  # full permutation, epochs interleaved arbitrarily

    service = Zero07Service(engine=engine)
    for start in range(0, len(events), chunk):
        service.ingest_batch(events[start : start + chunk])

    agent = AnalysisAgent(engine=engine)
    for epoch in range(NUM_EPOCHS):
        expected = agent.analyze_epoch(epoch, paths_by_epoch[epoch])
        assert report_signature(service.report(epoch)) == report_signature(expected)

    # ticking afterwards finalizes to the very same reports
    agent2 = AnalysisAgent(engine=engine)
    for epoch in range(NUM_EPOCHS):
        final = service.advance_epoch(epoch)
        expected = agent2.analyze_epoch(epoch, paths_by_epoch[epoch])
        assert report_signature(final) == report_signature(expected)


@given(
    workload=workloads,
    engine=engines,
    cuts=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5),
    query_epochs=st.lists(
        st.integers(0, NUM_EPOCHS - 1), min_size=5, max_size=5
    ),
    restore_index=st.integers(0, 4),
    base_index=st.integers(0, 4),
    base_codec=checkpoint_codecs,
    delta_codec=checkpoint_codecs,
)
def test_interleaved_queries_equal_fresh_replay(
    workload, engine, cuts, query_epochs, restore_index, base_index,
    base_codec, delta_codec,
):
    """report() at arbitrary ingest cuts == a from-scratch replay's answer.

    The materialized blame view caches per-epoch reports behind a mutation
    watermark, so a service that answered queries mid-stream must stay
    bit-identical to one that never did — including a repeated (cache-hit)
    query at the same cut, and across a restart at a random cut: the service
    is rebuilt from a base checkpoint taken at an earlier (or the same) cut
    plus a delta against it, each through a random codec.
    """
    _, events = build_evidence(workload)
    positions = sorted(min(cut, len(events)) for cut in cuts)
    restore_at = restore_index % len(positions)
    base_at = base_index % (restore_at + 1)
    service = Zero07Service(engine=engine)
    consumed = 0
    for i, position in enumerate(positions):
        service.ingest_batch(events[consumed:position])
        consumed = position
        epoch = query_epochs[i]
        replay = Zero07Service(engine=engine)
        replay.ingest_batch(events[:position])
        expected = report_signature(replay.report(epoch))
        assert report_signature(service.report(epoch)) == expected
        # a second query at the same cut hits the cached view — still exact
        assert report_signature(service.report(epoch)) == expected
        if i == base_at:
            base = through_codec(service.checkpoint(), base_codec)
        if i == restore_at:
            delta = through_codec(service.checkpoint(base=base), delta_codec)
            service = Zero07Service.restore(base.apply_delta(delta))
    service.ingest_batch(events[consumed:])
    replay = Zero07Service(engine=engine)
    replay.ingest_batch(events)
    for epoch in range(NUM_EPOCHS):
        assert report_signature(service.report(epoch)) == report_signature(
            replay.report(epoch)
        )


@given(workload=workloads, engine=engines)
def test_in_order_streaming_matches_batch(workload, engine):
    """The common case — ordered delivery, one event at a time — is exact too."""
    paths_by_epoch, events = build_evidence(workload)
    service = Zero07Service(engine=engine)
    for event in events:
        service.ingest(event)
    assert service.stats.out_of_order_events == 0
    agent = AnalysisAgent(engine=engine)
    for epoch in range(NUM_EPOCHS):
        expected = agent.analyze_epoch(epoch, paths_by_epoch[epoch])
        assert report_signature(service.report(epoch)) == report_signature(expected)


def late_epoch(rng):
    """One epoch's events.  Most paths open a new flow and most count updates
    follow their flow's path, so whole chunks stay bulk-admissible; the rest
    re-trace an earlier flow, or update a flow ahead of its path (which
    arrives a few events later) — the bindings a reordering can get wrong."""
    events, traced, ahead = [], [], []
    for seq in range(rng.randint(60, 260)):
        draw = rng.random()
        if traced and draw < 0.3:
            flow_id = rng.choice(traced)
        elif draw < 0.31:
            flow_id = 1000 + seq  # not traced yet: the count is buffered
            ahead.append(flow_id)
        else:
            if ahead and rng.random() < 0.3:
                flow_id = ahead.pop(0)
            elif traced and rng.random() < 0.08:
                flow_id = rng.choice(traced)  # a re-trace
            else:
                flow_id = seq
            traced.append(flow_id)
            hops = rng.sample(range(len(LINKS)), rng.randint(1, 4))
            events.append(
                PathEvidence(
                    epoch=0,
                    seq=seq,
                    path=make_path(flow_id, hops, rng.randint(1, 3), 0),
                )
            )
            continue
        events.append(
            RetransmissionEvidence(
                epoch=0, flow_id=flow_id, retransmissions=rng.randint(1, 3), seq=seq
            )
        )
    return events


def late_deliveries(events, rng):
    """``(chunk, bulk)`` deliveries of ``events``: chunks of 8-64 events, some
    swapped with their neighbour, redelivered whole or in part (a slice that
    may straddle into the next chunk), split into an advance party and a
    late rest that straddles it, some handed over event by event.  Every
    fourth chunk or so is led by a seq-less count update (applied on every
    delivery, never deduplicated), which it carries into each of those
    shapes."""
    chunks, at = [], 0
    while at < len(events):
        size = rng.randint(8, 64)
        chunk = events[at : at + size]
        if rng.random() < 0.25:
            about = rng.choice(events)  # any flow: traced before, in, or after
            flow_id = about.path.flow_id if hasattr(about, "path") else about.flow_id
            chunk = [RetransmissionEvidence(epoch=0, flow_id=flow_id)] + chunk
        chunks.append(chunk)
        at += size
    deliveries = []
    for i, chunk in enumerate(chunks):
        draw = rng.random()
        if draw > 0.8:  # every third event first: the rest lands around them
            stride = rng.randint(2, 3)
            deliveries.append(chunk[stride - 1 :: stride])
            deliveries.append([e for j, e in enumerate(chunk, 1) if j % stride])
            continue
        deliveries.append(chunk)
        if draw < 0.2:  # redelivered whole, now or later
            deliveries.insert(rng.randint(len(deliveries) // 2, len(deliveries)), chunk)
        elif draw < 0.4:  # redelivered in part, with some of what follows
            lo = rng.randrange(len(chunk))
            tail = chunks[i + 1][: rng.randint(0, 12)] if i + 1 < len(chunks) else []
            deliveries.append(chunk[lo:] + tail)
    for i in range(len(deliveries) - 1):
        if rng.random() < 0.3:
            deliveries[i], deliveries[i + 1] = deliveries[i + 1], deliveries[i]
    return [(chunk, rng.random() < 0.8) for chunk in deliveries]


@given(rng=seeds, codec=checkpoint_codecs)
def test_out_of_order_chunked_delivery_equals_per_event(rng, codec):
    """A chunked arrays service == a per-event dicts service, same arrivals.

    Late, redelivered and half-redelivered chunks either stay on the vector
    path (appended in arrival order) or replay per event; either way every
    query, the records, the checkpoint document and the perturbation
    counters must equal what the oracle — the dict engine fed one event at
    a time in the same arrival order — holds, across reads and a restart at
    drawn cuts.
    """
    deliveries = late_deliveries(late_epoch(rng), rng)
    restart_at = rng.randrange(len(deliveries))
    chunked = Zero07Service(engine="arrays")
    oracle = Zero07Service(engine="dicts")

    def records(service):
        return [
            (seq, path.flow_id, path.retransmissions, [str(link) for link in path.links])
            for seq, path in service.evidence_for_epoch(0)
        ]

    def assert_equal_state():
        assert records(chunked) == records(oracle)
        assert evidence_document(chunked.checkpoint()) == evidence_document(
            oracle.checkpoint()
        )
        assert chunked.stats.duplicate_events == oracle.stats.duplicate_events
        assert chunked.stats.out_of_order_events == oracle.stats.out_of_order_events

    for index, (chunk, bulk) in enumerate(deliveries):
        if bulk:
            chunked.ingest_batch(chunk)
        else:
            for event in chunk:
                chunked.ingest(event)
        for event in chunk:
            oracle.ingest(event)
        if rng.random() < 0.4:
            expected = report_signature(oracle.report(0))
            assert report_signature(chunked.report(0)) == expected
            assert report_signature(chunked.report(0)) == expected  # the view
        if rng.random() < 0.3:
            assert_equal_state()
        if index == restart_at:
            chunked = Zero07Service.restore(through_codec(chunked.checkpoint(), codec))
            oracle = Zero07Service.restore(through_codec(oracle.checkpoint(), codec))
    assert_equal_state()
    assert report_signature(chunked.advance_epoch(0)) == report_signature(
        oracle.advance_epoch(0)
    )


def perturbed_chunks(events, rng):
    """A delivery of ``events`` in chunks: count updates moved ahead of their
    path, redelivered events, swapped neighbouring chunks."""
    delivery = list(events)
    for _ in range(rng.randint(0, 2)):
        updates = [
            i for i, e in enumerate(delivery) if isinstance(e, RetransmissionEvidence)
        ]
        if updates:
            at = rng.choice(updates)
            delivery.insert(rng.randint(0, at), delivery.pop(at))
    for _ in range(rng.randint(0, 3)):
        if delivery:
            at = rng.randrange(len(delivery))
            delivery.insert(rng.randint(at, len(delivery)), delivery[at])
    chunks = []
    while delivery:
        size = rng.choice((1, 2, 3, 5, 9, 16))  # from 8 on, bulk stretches
        chunks.append(delivery[:size])
        del delivery[:size]
    for i in range(len(chunks) - 1):
        if rng.random() < 0.2:
            chunks[i], chunks[i + 1] = chunks[i + 1], chunks[i]
    return chunks


@pytest.mark.parametrize("backend", ["inline", "process"])
@pytest.mark.parametrize("num_shards", [2, 4])
@given(
    workload=workloads,
    engine=engines,
    rng=seeds,
    restore_codec=checkpoint_codecs,
)
def test_sharded_repeated_queries_equal_the_unsharded_service(
    num_shards, backend, workload, engine, rng, restore_codec
):
    """Every query of a sharded fleet, issued twice, == the unsharded answer.

    The facade keeps each open epoch's merged report behind a change
    version; an admission point that forgot to bump it would serve the
    previous cut's report to the second (or the next first) query.  Chunks
    arrive per event or batched, with duplicates, swapped chunks and count
    updates ahead of their path, and the fleet restarts from a checkpoint at
    a drawn cut.
    """
    _, events = build_evidence(workload, sequence_updates=True)
    chunks = perturbed_chunks(events, rng)
    restore_at = rng.randrange(len(chunks) + 1)
    fleet = ShardedService(num_shards, engine=engine, backend=backend)
    try:
        delivered = []
        for index, chunk in enumerate(chunks):
            if index == restore_at:
                checkpoint = through_codec(fleet.checkpoint(), restore_codec)
                fleet.close()
                fleet = ShardedService.restore(checkpoint, backend=backend)
            if rng.random() < 0.5:
                fleet.ingest_batch(chunk)
            else:
                for event in chunk:
                    fleet.ingest(event)
            delivered.extend(chunk)
            single = Zero07Service(engine=engine)
            single.ingest_batch(delivered)
            for epoch in rng.sample(range(NUM_EPOCHS), rng.randint(1, NUM_EPOCHS)):
                expected = report_signature(single.report(epoch))
                first = fleet.report(epoch)
                assert report_signature(first) == expected
                again = fleet.report(epoch)
                assert report_signature(again) == expected
                if first.num_paths_analyzed:
                    assert again is first  # the view, not a second merge
    finally:
        fleet.close()
