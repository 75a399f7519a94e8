"""Reusable test/benchmark helpers shipped with the package.

Living inside ``repro`` (instead of a ``conftest.py``) makes these helpers
importable from any test or benchmark directory without relying on pytest's
rootdir-dependent ``conftest`` module resolution — ``from conftest import x``
silently resolves to whichever conftest pytest imported first, which is how
the ``tests/`` suite once ended up importing ``benchmarks/conftest.py``.
"""

from __future__ import annotations

import json

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


def evidence_document(checkpoint) -> dict:
    """A service checkpoint's JSON document minus what depends on *how* the
    evidence was delivered or folded rather than on *what* arrived in which
    order: the engine name and the ``fallback_events`` counter (a chunked
    delivery may replay runs per event that a per-event delivery never
    forms).  Two services fed the same arrival order must agree on the rest.
    """
    document = json.loads(checkpoint.to_json())
    del document["engine"]
    del document["stats"]["fallback_events"]
    return document
