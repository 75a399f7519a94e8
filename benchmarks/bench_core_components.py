"""Micro-benchmarks of the core components (overhead story of Section 3).

The paper stresses that 007 is lightweight: negligible CPU, tiny memory, and
an analysis step cheap enough to run centrally every 30 seconds.  These
micro-benchmarks measure the throughput of the building blocks: ECMP routing,
flow transfer simulation, vote tallying, Algorithm 1 (in both the dict
reference engine and the vectorized array engine), a cold report on a large
fabric with its per-link tables unread and read, and traceroute path
discovery.
"""

from __future__ import annotations

import pytest

from repro.api.service import Zero07Service
from repro.core.analysis import AnalysisAgent
from repro.core.arrays import ArrayVoteTally, LinkIndex
from repro.core.blame import BlameConfig, find_problematic_links
from repro.core.votes import VoteTally
from repro.discovery.icmp import IcmpRateLimiter
from repro.discovery.traceroute import TracerouteEngine
from repro.fleet.runner import build_generator
from repro.netsim.links import LinkStateTable
from repro.netsim.tcp import simulate_transfer, simulate_transfers_batch
from repro.routing.ecmp import EcmpRouter
from repro.routing.fivetuple import FiveTuple
from repro.topology.clos import ClosParameters, ClosTopology


@pytest.fixture(scope="module")
def fabric():
    topology = ClosTopology(ClosParameters(npod=2, n0=10, n1=4, n2=4, hosts_per_tor=3))
    router = EcmpRouter(topology, rng=0)
    link_table = LinkStateTable(topology, rng=0)
    hosts = sorted(topology.hosts)
    return topology, router, link_table, hosts


def _flow(i: int, hosts) -> tuple[FiveTuple, str, str]:
    src = hosts[i % len(hosts)]
    dst = hosts[(i * 7 + 13) % len(hosts)]
    if dst == src:
        dst = hosts[(i * 7 + 14) % len(hosts)]
    return FiveTuple(src, dst, 1024 + i, 443), src, dst


def test_bench_ecmp_routing(benchmark, fabric):
    """Route 1000 flows through the fabric, no path cache (the seed baseline)."""
    topology, _, _, hosts = fabric
    router = EcmpRouter(topology, rng=0, cache_paths=False)

    def route_many():
        for i in range(1000):
            flow, src, dst = _flow(i, hosts)
            router.route(flow, src, dst)

    benchmark(route_many)


def test_bench_ecmp_routing_cached(benchmark, fabric):
    """Route the same 1000 flows with the per-epoch path cache warm.

    Compare against ``test_bench_ecmp_routing``: this is the steady-state cost
    the epoch simulator pays when data packets, traceroutes and later epochs
    re-route the same five-tuples.
    """
    topology, router, _, hosts = fabric
    for i in range(1000):  # warm the cache
        flow, src, dst = _flow(i, hosts)
        router.route(flow, src, dst)

    def route_many_cached():
        for i in range(1000):
            flow, src, dst = _flow(i, hosts)
            router.route(flow, src, dst)

    benchmark(route_many_cached)


def test_bench_flow_transfer(benchmark, fabric):
    """Simulate the TCP transfer of 500 flows of 100 packets, one at a time."""
    topology, router, link_table, hosts = fabric
    paths = []
    for i in range(500):
        flow, src, dst = _flow(i, hosts)
        paths.append(router.route(flow, src, dst))

    def transfer_many():
        for i, path in enumerate(paths):
            simulate_transfer(path, 100, link_table, rng=i)

    benchmark(transfer_many)


def test_bench_flow_transfer_batched(benchmark, fabric):
    """The same 500 transfers as one vectorized batch.

    Compare against ``test_bench_flow_transfer``: this is the path the epoch
    simulator takes since the batched engine landed.
    """
    topology, router, link_table, hosts = fabric
    paths = []
    for i in range(500):
        flow, src, dst = _flow(i, hosts)
        paths.append(router.route(flow, src, dst))

    benchmark(simulate_transfers_batch, paths, 100, link_table, rng=0)


def test_bench_vote_tally_and_blame(benchmark, fabric):
    """Tally votes for 2000 failed flows and run Algorithm 1 (dict engine)."""
    topology, router, _, hosts = fabric
    link_lists = []
    for i in range(2000):
        flow, src, dst = _flow(i, hosts)
        link_lists.append(router.route(flow, src, dst).links)

    def tally_and_blame():
        tally = VoteTally()
        for flow_id, links in enumerate(link_lists):
            tally.add_flow(flow_id, links)
        return find_problematic_links(tally, BlameConfig())

    benchmark(tally_and_blame)


def test_bench_vote_tally_and_blame_arrays(benchmark, fabric):
    """The same 2000-flow tally + Algorithm 1 on the vectorized array engine.

    Compare against ``test_bench_vote_tally_and_blame``: identical output
    (bit-for-bit), but the support scan and the discounting loop run over a
    CSR path matrix instead of per-flow contribution lists.
    """
    topology, router, _, hosts = fabric
    link_lists = []
    for i in range(2000):
        flow, src, dst = _flow(i, hosts)
        link_lists.append(router.route(flow, src, dst).links)

    def tally_and_blame_arrays():
        tally = ArrayVoteTally(index=LinkIndex())
        for flow_id, links in enumerate(link_lists):
            tally.add_flow(flow_id, links)
        return find_problematic_links(tally, BlameConfig())

    benchmark(tally_and_blame_arrays)


@pytest.fixture(scope="module")
def medium_link_lists():
    """1000 routed flows on a medium fabric (npod=4, n0=24) for the engine duel."""
    topology = ClosTopology(ClosParameters(npod=4, n0=24, n1=8, n2=8, hosts_per_tor=6))
    router = EcmpRouter(topology, rng=0)
    hosts = sorted(topology.hosts)
    link_lists = []
    for i in range(1000):
        flow, src, dst = _flow(i, hosts)
        link_lists.append(router.route(flow, src, dst).links)
    return link_lists


def test_bench_tally_blame_medium_dicts(benchmark, medium_link_lists):
    """Dict engine on the medium fabric: the O(links x flows) support scan bites."""

    def tally_and_blame():
        tally = VoteTally()
        for flow_id, links in enumerate(medium_link_lists):
            tally.add_flow(flow_id, links)
        return find_problematic_links(tally, BlameConfig())

    benchmark.pedantic(tally_and_blame, rounds=3, iterations=1)


def test_bench_tally_blame_medium_arrays(benchmark, medium_link_lists):
    """Array engine on the medium fabric — the acceptance target is >= 5x
    over ``test_bench_tally_blame_medium_dicts`` (measured ~200x)."""

    def tally_and_blame_arrays():
        tally = ArrayVoteTally(index=LinkIndex())
        for flow_id, links in enumerate(medium_link_lists):
            tally.add_flow(flow_id, links)
        return find_problematic_links(tally, BlameConfig())

    benchmark.pedantic(tally_and_blame_arrays, rounds=3, iterations=1)


@pytest.fixture(scope="module")
def large_fabric_tally():
    """A mid-epoch tally on the ruler's ``large`` fabric (``operator_trickle``'s
    stream: ~2.8k voted links, a couple of detections) and an agent for it."""
    generator = build_generator("large", "uniform", "flap", 5, 32_768)
    service = Zero07Service(engine="arrays")
    service.ingest_batch(generator.epoch_events(0, tick=False)[:10_240])
    return service.report(0).tally, AnalysisAgent(engine="arrays")


def test_bench_cold_report_large_unread(benchmark, large_fabric_tally):
    """What a tick or a cold ``report()`` pays on the arrays engine: snapshot,
    fold, blame kernel, O(detections) objects — no per-link table."""
    tally, agent = large_fabric_tally
    report = benchmark(lambda: agent.analyze_tally(0, tally.snapshot()))
    assert report._ranked is None and report.blame._final is None


def test_bench_cold_report_large_every_link_field_read(benchmark, large_fabric_tally):
    """The same report plus a reader of every per-link field right away — the
    cost no ruler workload times in-process.  Must stay at or below what the
    eager report cost before the tables went on demand (CHANGES.md, PR 20)."""
    tally, agent = large_fabric_tally

    def report_and_read():
        report = agent.analyze_tally(0, tally.snapshot())
        return (
            report.ranked_links,
            report.blame.final_votes,
            report.blame.votes_at_detection,
        )

    ranked, final, _ = benchmark(report_and_read)
    assert len(ranked) == len(final) > 2_500


def test_bench_traceroute(benchmark, fabric):
    """Trace 500 flows with the crafted-probe engine."""
    topology, router, link_table, hosts = fabric
    engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0)

    def trace_many():
        for i in range(500):
            flow, src, dst = _flow(i, hosts)
            engine.trace(flow, src, dst, time_s=float(i % 30))

    benchmark(trace_many)
