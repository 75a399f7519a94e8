"""Reusable test/benchmark helpers shipped with the package.

Living inside ``repro`` (instead of a ``conftest.py``) makes these helpers
importable from any test or benchmark directory without relying on pytest's
rootdir-dependent ``conftest`` module resolution — ``from conftest import x``
silently resolves to whichever conftest pytest imported first, which is how
the ``tests/`` suite once ended up importing ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from repro.topology.clos import ClosTopology


def pair_of_hosts(topology: ClosTopology, cross_pod: bool = True) -> tuple[str, str]:
    """Return a (src, dst) host pair, cross-pod when requested."""
    hosts = sorted(topology.hosts)
    src = hosts[0]
    src_pod = topology.host(src).pod
    for dst in hosts[1:]:
        host = topology.host(dst)
        if cross_pod and host.pod != src_pod:
            return src, dst
        if not cross_pod and host.pod == src_pod and host.tor != topology.host(src).tor:
            return src, dst
    raise RuntimeError("no suitable host pair found")


def health_records(aggregator) -> dict:
    """link -> :class:`LinkHealthRecord` of every link a
    :class:`MultiEpochAggregator` saw voted for or detected."""
    return {
        record.link: record
        for record in aggregator.recurrent_offenders(min_epochs_detected=0)
        if record.epochs_voted or record.epochs_detected
    }


def report_signature(report) -> tuple:
    """Every user-visible field of an :class:`EpochReport`, exact floats.

    Two reports with equal signatures are bit-identical for every consumer:
    same detections (order included), same ranked tally, same flow causes,
    same noise split, same thresholds.  Used by the streaming-vs-batch,
    checkpoint and shard equivalence tests.
    """
    return (
        report.epoch,
        [str(link) for link in report.detected_links],
        [(str(link), votes) for link, votes in report.ranked_links],
        sorted((flow, str(link)) for flow, link in report.flow_causes.items()),
        sorted(report.noise.noise_flows),
        sorted(report.noise.failure_flows),
        report.num_paths_analyzed,
        report.blame.threshold_votes,
        sorted((str(link), votes) for link, votes in report.blame.votes_at_detection.items()),
        sorted((str(link), votes) for link, votes in report.blame.final_votes.items()),
    )


def evidence_document(checkpoint):
    """A service checkpoint with its engine name blanked: what two services
    fed the same arrival order agree on, whichever engine folds it and
    however the evidence was cut into deliveries.  Compare two with ``==``
    (:meth:`~repro.api.checkpoint.Checkpoint.__eq__`: canonical content).
    """
    return dataclasses.replace(
        checkpoint, payload={**checkpoint.payload, "engine": None}
    )


def epoch_records(service, epoch: int) -> list:
    """``(seq, flow id, count, links)`` of each record of ``service``'s open
    ``epoch``, in seq order, read back from the tally's ``record_columns()``
    (either engine; ``[]`` for an epoch that is not open).  Reading ``stats``
    admits the pending run first."""
    service.stats
    state = service._epochs.get(epoch)
    if state is None:
        return []
    flows, counts, lengths, hops, seqs = state.tally.record_columns()
    if isinstance(hops, np.ndarray):  # the arrays engine's link ids
        hops = list(map(service.link_index.link_of, hops.tolist()))
    ends = np.cumsum(np.asarray(lengths, dtype=np.int64)).tolist()
    records = [
        (int(seq), int(flow), int(count), hops[end - int(length) : end])
        for seq, flow, count, length, end in zip(seqs, flows, counts, lengths, ends)
    ]
    return sorted(records, key=operator.itemgetter(0))
