"""Unit tests for the traceroute engine."""

from __future__ import annotations

import pytest

from repro.testing import pair_of_hosts
from repro.discovery.icmp import IcmpRateLimiter
from repro.discovery.traceroute import TracerouteEngine
from repro.netsim.links import LinkStateTable
from repro.routing.ecmp import EcmpRouter
from repro.routing.fivetuple import FiveTuple


def _flow(src, dst, port=1000):
    return FiveTuple(src, dst, port, 443)


@pytest.fixture()
def engine(small_topology, router, link_table):
    return TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0)


class TestCompleteTrace:
    def test_discovers_full_path(self, small_topology, router, engine):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        flow = _flow(src, dst)
        trace = engine.trace(flow, src, dst)
        true_path = router.route(flow, src, dst)
        assert trace.complete
        assert trace.reached_destination
        assert trace.discovered_links == list(true_path.links)
        assert len(trace.probes) == true_path.hop_count

    def test_trace_matches_data_path_for_same_five_tuple(self, small_topology, router, engine):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        for port in range(1000, 1010):
            flow = _flow(src, dst, port)
            trace = engine.trace(flow, src, dst)
            assert trace.discovered_links == list(router.route(flow, src, dst).links)

    def test_responders_are_path_nodes(self, small_topology, router, engine):
        src, dst = pair_of_hosts(small_topology, cross_pod=False)
        flow = _flow(src, dst)
        trace = engine.trace(flow, src, dst)
        path_nodes = router.route(flow, src, dst).nodes()
        for probe in trace.probes:
            assert probe.responder in path_nodes

    def test_ip_id_encodes_ttl(self, small_topology, engine):
        src, dst = pair_of_hosts(small_topology)
        trace = engine.trace(_flow(src, dst), src, dst)
        for probe in trace.probes:
            assert probe.ip_id & 0xF == probe.ttl & 0xF


class TestPartialTrace:
    def test_blackhole_truncates_trace(self, small_topology, router, link_table):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        flow = _flow(src, dst)
        true_path = router.route(flow, src, dst)
        # Blackhole the third link (T1 -> T2): probes beyond hop 2 die there.
        link_table.set_link_down(true_path.links[2].undirected())
        engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0)
        trace = engine.trace(flow, src, dst)
        assert not trace.complete
        assert not trace.reached_destination
        answered = [probe.responder for probe in trace.probes if probe.responder]
        assert answered[-1] == true_path.nodes()[2]
        assert set(trace.discovered_links) <= set(true_path.links[:2])

    def test_rate_limited_hop_missing(self, small_topology, router, link_table):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        flow = _flow(src, dst)
        limiter = IcmpRateLimiter(tmax_per_second=1)
        true_path = router.route(flow, src, dst)
        # Exhaust the budget of the first-hop ToR for second 0.
        first_hop = true_path.nodes()[1]
        limiter.allow(first_hop, 0.0)
        engine = TracerouteEngine(router, link_table, limiter, rng=0, probe_loss=False)
        trace = engine.trace(flow, src, dst, time_s=0.0)
        assert trace.probes[0].rate_limited
        assert trace.probes[0].responder is None
        assert not trace.complete

    def test_unroutable_flow_gives_empty_trace(self, small_topology, link_table):
        src, dst = pair_of_hosts(small_topology)
        src_tor = small_topology.host(src).tor
        from repro.topology.elements import DirectedLink

        down = {
            DirectedLink(src_tor, t1.name)
            for t1 in small_topology.tier1s(small_topology.host(src).pod)
        }
        router = EcmpRouter(small_topology, rng=0, link_down=lambda l: l in down)
        engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0)
        trace = engine.trace(_flow(src, dst), src, dst)
        assert trace.probes == []
        assert trace.discovered_links == []
        assert not trace.complete


class TestProbeLossToggle:
    def test_probe_loss_disabled_ignores_lossy_links(self, small_topology, router, link_table):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        flow = _flow(src, dst)
        true_path = router.route(flow, src, dst)
        link_table.inject_failure(true_path.links[0], 0.9)
        engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0, probe_loss=False)
        trace = engine.trace(flow, src, dst)
        assert trace.complete

    def test_probe_loss_enabled_can_lose_probes(self, small_topology, router, link_table):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        flow = _flow(src, dst)
        true_path = router.route(flow, src, dst)
        link_table.inject_failure(true_path.links[0], 1.0)
        engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0, probe_loss=True)
        trace = engine.trace(flow, src, dst)
        assert all(p.responder is None for p in trace.probes)
        assert trace.probes[0].dropped_on == true_path.links[0]
