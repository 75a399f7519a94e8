"""Isolated per-layer replays for the traced run.

Each replay feeds one layer's public functions the same inputs the workload
gave it, outside any service, so a layer's own cost can be told apart from
the glue around it: ``core.*`` is a lower bound of the service's fold and
finalize, ``wire.*``/``store.*`` of the sharded coordinator's lanes, and the
``fleet.*`` in-process chain of the analyzer's socket path.  All spans land
in the same trace file under a ``replay`` root.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ruler import harness
from ruler.harness import Run, Stream


def path_share(stream: Stream) -> float:
    """Share of the stream that is path evidence (the rest are count bumps)."""
    from repro.api import PathEvidence

    paths = sum(
        1 for events in stream.epochs for event in events if type(event) is PathEvidence
    )
    return paths / stream.events_total if stream.events_total else 0.0


def _epoch_paths(events: Sequence) -> list:
    """Fresh path objects of one epoch with the epoch's count bumps applied."""
    from repro.api import PathEvidence
    from repro.api.events import copy_path

    by_flow = {}
    paths = []
    for event in events:
        if type(event) is PathEvidence:
            path = copy_path(event.path)
            by_flow[path.flow_id] = path
            paths.append(path)
        else:
            by_flow[event.flow_id].retransmissions += event.retransmissions
    return paths


def core_replay(run: Run, stream: Stream) -> None:
    """``core.arrays`` / ``core.analysis`` on each epoch's paths, in isolation."""
    import numpy as np

    from repro.core.analysis import AnalysisAgent
    from repro.core.arrays import (
        ArrayVoteTally,
        LinkIndex,
        attribute_flow_causes_arrays,
        classify_noise_flows_arrays,
        find_problematic_links_arrays,
    )
    from repro.core.blame import BlameConfig

    tracer = run.tracer
    config = BlameConfig()
    index = LinkIndex()
    agent_index = LinkIndex()
    agent = AnalysisAgent(engine="arrays", link_index=agent_index)
    flows: List[int] = []
    with tracer.span("replay"):
        for epoch, events in enumerate(stream.epochs):
            tracer.epoch = epoch
            paths = _epoch_paths(events)
            tally = ArrayVoteTally(index=index)
            with tracer.span("core.add_flows"):
                tally.add_flows(paths)
            with tracer.span("core.votes_array"):
                tally.votes_array()
            with tracer.span("core.blame_kernel"):
                blame = find_problematic_links_arrays(tally, config)
            with tracer.span("core.classify_noise"):
                noise = classify_noise_flows_arrays(tally, blame.detected_links)
            failure_ids = np.fromiter(
                noise.failure_flows, dtype=np.int64, count=len(noise.failure_flows)
            )
            rows = np.flatnonzero(np.isin(tally.flow_ids_array(), failure_ids))
            with tracer.span("core.attribute"):
                attribute_flow_causes_arrays(tally, rows)
            flows.append(tally.num_flows)
            whole = ArrayVoteTally(index=agent_index)
            whole.add_flows(_epoch_paths(events))
            with tracer.span("core.analyze_tally"):
                agent.analyze_tally(epoch, whole)
        tracer.epoch = None
    times = tracer.self_times(tracer.pass_id)
    for name in (
        "core.add_flows",
        "core.votes_array",
        "core.blame_kernel",
        "core.classify_noise",
        "core.attribute",
        "core.analyze_tally",
    ):
        run.set(f"{name}_s", times.get(name, 0.0), len(stream.epochs))
    run.set("core.links_indexed", len(index))
    run.set("core.flows_per_epoch", harness.median(flows), len(flows))
    if run.workload == "steady_ingest":
        # only there does the tick do the whole analysis; operator_trickle's
        # queries have folded the view before the tick arrives
        run.set(
            "service.tick_overhead_s",
            run.values["service.tick_s"] - times.get("core.analyze_tally", 0.0),
        )


def shard_sub_runs(stream: Stream, num_shards: int) -> List[List[Tuple[int, list]]]:
    """Per epoch, the ``(shard, events)`` sub-runs the facade would route."""
    from repro.api import PathEvidence
    from repro.api.sharded import shard_of_host

    out: List[List[Tuple[int, list]]] = []
    for events in stream.epochs:
        subs: List[list] = [[] for _ in range(num_shards)]
        owner: Dict[int, int] = {}
        for event in events:
            if type(event) is PathEvidence:
                shard = shard_of_host(event.path.src_host, num_shards)
                owner[event.path.flow_id] = shard
            else:
                shard = owner[event.flow_id]
            subs[shard].append(event)
        out.append([(shard, sub) for shard, sub in enumerate(subs) if sub])
    return out


def wire_replay(
    run: Run, sub_runs: List[List[Tuple[int, list]]], stream: Stream
) -> None:
    """``api.wire`` codec and column store on the workload's own sub-runs.

    ``sub_runs[epoch]`` is a list of ``(stream id, events)``: the sharded
    coordinator's per-shard sub-runs, or the fleet agents' chunks.
    """
    from repro.api.wire import (
        EvidenceColumnStore,
        WireDecoder,
        WireEncoder,
    )
    from repro.core.arrays import LinkIndex

    tracer = run.tracer
    streams = 1 + max(sid for epoch_runs in sub_runs for sid, _ in epoch_runs)
    encoder = WireEncoder(streams=streams)
    decoders = [WireDecoder() for _ in range(streams)]
    store = EvidenceColumnStore(LinkIndex())
    total_bytes = 0
    total_events = 0
    with tracer.span("replay"):
        for epoch, epoch_runs in enumerate(sub_runs):
            tracer.epoch = epoch
            for sid, events in epoch_runs:
                with tracer.span("wire.encode"):
                    payload = encoder.encode_run(sid, sid, epoch, events)
                total_bytes += len(payload)
                total_events += len(events)
                with tracer.span("wire.decode_columns"):
                    columns = decoders[sid].decode_columns(payload)
                with tracer.span("wire.materialize"):
                    columns.materialize()
            with tracer.span("store.append"):
                store.append_run(epoch, stream.epochs[epoch])
            with tracer.span("store.build_tally"):
                store.build_tally(epoch)
            store.pop(epoch)
        tracer.epoch = None
    times = tracer.self_times(tracer.pass_id)
    for name in (
        "wire.encode",
        "wire.decode_columns",
        "wire.materialize",
        "store.append",
        "store.build_tally",
    ):
        run.set(f"{name}_s", times.get(name, 0.0), len(sub_runs))
    encode_s = times.get("wire.encode", 0.0)
    run.set("wire.encode_events_per_s", total_events / encode_s if encode_s else 0.0)
    run.set("wire.bytes_per_event", total_bytes / total_events)
