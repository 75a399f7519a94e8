"""Property tests: loadgen streams, replay, checkpoints, batch equivalence.

The invariants the load generator + streaming service pair must hold for
*any* workload shape:

* replaying a generated stream through :class:`ReplayEvidenceSource` into a
  :class:`Zero07Service` produces reports bit-identical to an independent
  batch analysis of the same paths (both engines, batched or per-event,
  owned or copied);
* checkpointing at *any* mid-stream cut point and resuming is invisible in
  every subsequent report;
* a sharded fleet agrees with the unsharded service on the same stream.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.api import (
    Checkpoint,
    PathEvidence,
    ReplayEvidenceSource,
    RetransmissionEvidence,
    ShardedService,
    Zero07Service,
)
from repro.api.events import copy_path
from repro.core.analysis import AnalysisAgent
from repro.loadgen import EvidenceLoadGenerator, WorkloadProfile
from repro.netsim.script import ScenarioScript
from repro.testing import report_signature
from repro.topology.elements import LinkLevel


def profiles() -> st.SearchStrategy[WorkloadProfile]:
    return st.builds(
        WorkloadProfile,
        popularity=st.sampled_from(["uniform", "zipf"]),
        hot_tor_fraction=st.sampled_from([0.0, 0.4]),
        num_bad_links=st.integers(min_value=0, max_value=3),
        bad_path_fraction=st.sampled_from([0.0, 0.3, 0.7]),
        repeat_fraction=st.sampled_from([0.0, 0.2, 0.4]),
        max_initial_retransmissions=st.integers(min_value=1, max_value=3),
        max_extra_retransmissions=st.integers(min_value=1, max_value=3),
    )


def scripts() -> st.SearchStrategy:
    flap = st.builds(
        lambda start: ScenarioScript().flap(
            start=start, duration=1, drop_rate=0.01, level=LinkLevel.LEVEL1
        ),
        start=st.integers(min_value=0, max_value=2),
    )
    return st.one_of(st.none(), flap)


workloads = st.fixed_dictionaries(
    {
        "profile": profiles(),
        "script": scripts(),
        "seed": st.integers(min_value=0, max_value=2**16),
        "events_per_epoch": st.integers(min_value=8, max_value=120),
        "epochs": st.integers(min_value=1, max_value=3),
    }
)


def generate(workload) -> tuple:
    generator = EvidenceLoadGenerator(
        fabric="tiny",
        profile=workload["profile"],
        script=workload["script"],
        seed=workload["seed"],
        events_per_epoch=workload["events_per_epoch"],
    )
    return generator, list(generator.stream(workload["epochs"]))


def batch_reports(events, epochs, engine):
    """The legacy batch analysis over the stream's paths, per epoch.

    The batch loop saw the monitoring agent's *live* path objects, whose
    retransmission counts include every later repeat — so repeat updates are
    folded into (copies of) the discovered paths before analysing.
    """
    agent = AnalysisAgent(engine=engine)
    paths_by_epoch: dict = {}
    by_flow: dict = {}
    for event in events:
        if isinstance(event, PathEvidence):
            path = copy_path(event.path)
            paths_by_epoch.setdefault(event.epoch, []).append(path)
            by_flow[(event.epoch, path.flow_id)] = path
        elif isinstance(event, RetransmissionEvidence):
            path = by_flow.get((event.epoch, event.flow_id))
            if path is not None:
                path.retransmissions += event.retransmissions
    return [
        report_signature(agent.analyze_epoch(epoch, paths_by_epoch.get(epoch, [])))
        for epoch in range(epochs)
    ]


@settings(max_examples=20, deadline=None)
@given(workload=workloads, engine=st.sampled_from(["arrays", "dicts"]))
def test_replayed_stream_equals_batch_analysis(workload, engine):
    """Loadgen -> ReplayEvidenceSource -> service == batch analysis, bit for bit.

    The batch analysis sees each epoch's paths in discovery order with their
    *final* retransmission counts — so the service must fold every repeat
    update into the right flow before finalizing.
    """
    _, events = generate(workload)
    epochs = workload["epochs"]

    service = Zero07Service(engine=engine, retain_reports=epochs)
    service.consume(ReplayEvidenceSource(events))
    streamed = [report_signature(service.report(e)) for e in range(epochs)]
    assert streamed == batch_reports(events, epochs, engine)

    # the vectorized batched path and per-event ingestion agree too,
    # including ownership transfer (fresh generation, nobody else reads it)
    generator2 = EvidenceLoadGenerator(
        fabric="tiny",
        profile=workload["profile"],
        script=workload["script"],
        seed=workload["seed"],
        events_per_epoch=workload["events_per_epoch"],
    )
    owned = Zero07Service(engine=engine, retain_reports=epochs)
    owned.ingest_batch(list(generator2.stream(epochs)), owned=True)
    assert [report_signature(owned.report(e)) for e in range(epochs)] == streamed
    assert owned.stats.as_dict() == service.stats.as_dict()


@settings(max_examples=20, deadline=None)
@given(
    workload=workloads,
    engine=st.sampled_from(["arrays", "dicts"]),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_checkpoint_at_any_cut_point_is_invisible(workload, engine, cut):
    """Stop/restore at a random mid-stream point changes no final report."""
    _, events = generate(workload)
    epochs = workload["epochs"]
    split = int(len(events) * cut)

    interrupted = Zero07Service(engine=engine, retain_reports=epochs)
    interrupted.ingest_batch(events[:split])
    resumed = Zero07Service.restore(
        Checkpoint.from_bytes(interrupted.checkpoint().to_bytes())
    )
    resumed.ingest_batch(events[split:])

    uninterrupted = Zero07Service(engine=engine, retain_reports=epochs)
    uninterrupted.ingest_batch(events)

    finalized = interrupted.last_finalized_epoch
    start = 0 if finalized is None else finalized + 1
    for epoch in range(start, epochs):
        assert report_signature(resumed.report(epoch)) == report_signature(
            uninterrupted.report(epoch)
        )


@settings(max_examples=12, deadline=None)
@given(workload=workloads, num_shards=st.sampled_from([2, 3, 4]))
def test_sharded_fleet_agrees_on_any_workload(workload, num_shards):
    _, events = generate(workload)
    epochs = workload["epochs"]
    # defensive (copying) service first: the fleet then takes ownership of
    # the events and may mutate them freely.
    single = Zero07Service(retain_reports=epochs)
    single.ingest_batch(events)
    fleet = ShardedService(num_shards=num_shards, retain_reports=epochs)
    fleet.ingest_batch(events, owned=True)
    for epoch in range(epochs):
        assert report_signature(fleet.report(epoch)) == report_signature(
            single.report(epoch)
        )
