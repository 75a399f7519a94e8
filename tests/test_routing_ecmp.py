"""Unit tests for ECMP routing over the Clos topology."""

from __future__ import annotations

import collections
import random

import pytest

from repro.testing import pair_of_hosts
from repro.routing.ecmp import EcmpRouter, NoRouteError
from repro.routing.fivetuple import FiveTuple
from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink, SwitchTier


#: the 99.9th percentile of the chi-square distribution with 127 degrees of
#: freedom (scipy.stats.chi2.ppf(0.999, 127)).
CHI2_127_P999 = 181.99


def _flow(src: str, dst: str, port: int = 1000) -> FiveTuple:
    return FiveTuple(src, dst, port, 443)


class TestRouteStructure:
    def test_same_tor_path_has_two_links(self, small_topology, router):
        tor = small_topology.tors(0)[0]
        hosts = [
            host for host in sorted(small_topology.hosts)
            if small_topology.host(host).tor == tor.name
        ]
        path = router.route(_flow(hosts[0], hosts[1]), hosts[0], hosts[1])
        assert path.hop_count == 2
        assert path.nodes() == [hosts[0], tor.name, hosts[1]]

    def test_intra_pod_path_has_four_links(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology, cross_pod=False)
        path = router.route(_flow(src, dst), src, dst)
        assert path.hop_count == 4
        middle = path.nodes()[2]
        assert small_topology.switch(middle).tier == SwitchTier.T1

    def test_cross_pod_path_has_six_links(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        path = router.route(_flow(src, dst), src, dst)
        assert path.hop_count == 6
        t2 = path.nodes()[3]
        assert small_topology.switch(t2).tier == SwitchTier.T2

    def test_hop_count_matches_expectation(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        path = router.route(_flow(src, dst), src, dst)
        assert path.hop_count == small_topology.expected_hop_count(src, dst)

    def test_path_uses_existing_links(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        path = router.route(_flow(src, dst), src, dst)
        for link in path.links:
            assert small_topology.has_link(link.src, link.dst)


class TestEcmpDeterminism:
    def test_same_five_tuple_same_path(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology)
        flow = _flow(src, dst)
        assert router.route(flow, src, dst) == router.route(flow, src, dst)

    def test_different_ports_can_differ(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology)
        paths = {
            router.route(_flow(src, dst, port), src, dst).nodes()[2]
            for port in range(1000, 1064)
        }
        # With 2 tier-1 switches per pod, 64 flows should hit both.
        assert len(paths) > 1

    def test_reseed_changes_hashing(self, small_topology):
        router_a = EcmpRouter(small_topology, rng=0)
        router_b = EcmpRouter(small_topology, rng=1)
        src, dst = pair_of_hosts(small_topology)
        differences = 0
        for port in range(1000, 1032):
            flow = _flow(src, dst, port)
            if router_a.route(flow, src, dst) != router_b.route(flow, src, dst):
                differences += 1
        assert differences > 0

    def test_reseed_switch(self, small_topology, router):
        """A reseed (a reboot) redraws the switch's choices: flows move."""
        src = sorted(small_topology.hosts)[0]
        tor = small_topology.host(src).tor
        dsts = [h for h in sorted(small_topology.hosts) if small_topology.host(h).tor != tor]

        def first_hops():
            return [
                router.route(_flow(src, dst, port), src, dst).nodes()[2]
                for dst in dsts
                for port in range(1000, 1016)
            ]

        before = first_hops()
        assert first_hops() == before
        router.reseed_switch(tor, rng=99)
        assert first_hops() != before

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_pod_flows_use_every_switch_triple_uniformly(self, seed):
        """No polarization: on the default fabric (4 T1s per pod, 4 T2s)
        cross-pod flows take every (source T1, T2, destination T1) triple of
        both directions, about equally often.  A hash linear over GF(2) makes
        the switches choose in lockstep and leaves a third or more unused."""
        topology = ClosTopology(npod=2, n0=10, n1=4, n2=4, hosts_per_tor=3)
        router = EcmpRouter(topology, rng=seed)
        hosts = sorted(topology.hosts)
        rng = random.Random(seed)
        counts = collections.Counter()
        port = 10_000
        while sum(counts.values()) < 2_560:  # ~20 flows per triple
            src, dst = rng.sample(hosts, 2)
            if topology.host(src).pod != topology.host(dst).pod:
                nodes = router.route(_flow(src, dst, port), src, dst).nodes()
                counts[tuple(nodes[2:5])] += 1
                port += 1
        assert len(counts) == 2 * 4 * 4 * 4
        expected = sum(counts.values()) / len(counts)
        statistic = sum((n - expected) ** 2 / expected for n in counts.values())
        assert statistic < CHI2_127_P999

    def test_ecmp_spreads_across_all_t1s(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology)
        chosen = {
            router.route(_flow(src, dst, port), src, dst).nodes()[2]
            for port in range(1000, 1200)
        }
        expected = {s.name for s in small_topology.tier1s(small_topology.host(src).pod)}
        assert chosen == expected


class TestRouteErrors:
    def test_unknown_host_raises(self, router):
        with pytest.raises(ValueError):
            router.route(_flow("nope", "alsono"), "nope", "alsono")

    def test_self_route_raises(self, small_topology, router):
        host = sorted(small_topology.hosts)[0]
        with pytest.raises(ValueError):
            router.route(_flow(host, host), host, host)

    def test_no_route_when_all_uplinks_down(self, small_topology):
        src, dst = pair_of_hosts(small_topology)
        src_tor = small_topology.host(src).tor
        t1_names = {s.name for s in small_topology.tier1s(small_topology.host(src).pod)}
        down = {DirectedLink(src_tor, t1) for t1 in t1_names}
        router = EcmpRouter(small_topology, rng=0, link_down=lambda l: l in down)
        with pytest.raises(NoRouteError):
            router.route(_flow(src, dst), src, dst)

    def test_single_down_uplink_is_avoided(self, small_topology):
        src, dst = pair_of_hosts(small_topology)
        src_tor = small_topology.host(src).tor
        avoided_t1 = small_topology.tier1s(small_topology.host(src).pod)[0].name
        down = {DirectedLink(src_tor, avoided_t1)}
        router = EcmpRouter(small_topology, rng=0, link_down=lambda l: l in down)
        for port in range(1000, 1050):
            path = router.route(_flow(src, dst, port), src, dst)
            assert avoided_t1 != path.nodes()[2]


class TestRouteCache:
    def test_cache_hit_returns_same_path(self, small_topology):
        router = EcmpRouter(small_topology, rng=0)
        src, dst = pair_of_hosts(small_topology)
        flow = _flow(src, dst)
        first = router.route(flow, src, dst)
        assert router.route(flow, src, dst) is first
        assert router.cache_hits == 1 and router.cache_misses == 1

    def test_cached_equals_uncached(self, small_topology):
        cached = EcmpRouter(small_topology, rng=0, cache_paths=True)
        uncached = EcmpRouter(small_topology, rng=0, cache_paths=False)
        src, dst = pair_of_hosts(small_topology)
        for port in range(1000, 1050):
            flow = _flow(src, dst, port)
            assert cached.route(flow, src, dst) == uncached.route(flow, src, dst)
        assert uncached.cache_hits == 0 and uncached.cache_misses == 0

    def test_reseed_invalidates_cache(self, small_topology):
        router = EcmpRouter(small_topology, rng=0)
        src, dst = pair_of_hosts(small_topology)
        flow = _flow(src, dst)
        router.route(flow, src, dst)
        # Reseed every switch: the flow must be re-hashed, not served stale.
        for switch in sorted(small_topology.switches):
            router.reseed_switch(switch, rng=1234)
        fresh = EcmpRouter(small_topology, rng=0)
        for switch in sorted(small_topology.switches):
            fresh.reseed_switch(switch, rng=1234)
        assert router.route(flow, src, dst) == fresh.route(flow, src, dst)

    def test_custom_link_down_predicate_disables_cache(self, small_topology):
        down = set()
        router = EcmpRouter(small_topology, rng=0, link_down=lambda l: l in down)
        assert not router.cache_enabled
        src, dst = pair_of_hosts(small_topology)
        flow = _flow(src, dst)
        path = router.route(flow, src, dst)
        # Mutate the predicate's backing state: the next route must see it.
        down.add(path.links[1])
        rerouted = router.route(flow, src, dst)
        assert path.links[1] not in rerouted.links


class TestReverseAndEnumeration:

    def test_all_paths_counts(self, small_topology, router):
        params = small_topology.params
        src, dst = pair_of_hosts(small_topology, cross_pod=False)
        assert len(router.all_paths(src, dst)) == params.n1
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        assert len(router.all_paths(src, dst)) == params.n1 * params.n2 * params.n1

    def test_routed_path_is_among_all_paths(self, small_topology, router):
        src, dst = pair_of_hosts(small_topology, cross_pod=True)
        path = router.route(_flow(src, dst), src, dst)
        assert path in router.all_paths(src, dst)
