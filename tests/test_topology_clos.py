"""Unit tests for the Clos topology builder, its index and the Section 7 test cluster."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.experiments import fig13_testcluster_votes as fig13
from repro.experiments.scenario import inject_failures
from repro.netsim.links import LinkStateTable
from repro.topology.clos import ClosParameters, ClosTopology
from repro.topology.elements import Link, LinkLevel, SwitchTier


class TestClosParameters:
    def test_link_counts(self):
        params = ClosParameters(npod=2, n0=3, n1=2, n2=2, hosts_per_tor=2)
        assert params.num_hosts == 12
        assert params.num_host_links == 12
        assert params.num_level1_links == 2 * 3 * 2
        assert params.num_level2_links == 2 * 2 * 2
        assert params.num_links == 12 + 12 + 8

    def test_tier3_link_counts(self):
        params = ClosParameters(npod=1, n0=2, n1=2, n2=2, hosts_per_tor=1, n3=3)
        assert params.num_level3_links == 2 * 3
        assert params.num_links == 2 + 4 + 4 + 6
        assert ClosParameters().num_level3_links == 0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            ClosParameters(npod=0)
        with pytest.raises(ValueError):
            ClosParameters(n0=0)
        with pytest.raises(ValueError):
            ClosParameters(hosts_per_tor=0)
        with pytest.raises(ValueError):
            ClosParameters(n3=-1)


class TestClosTopology:
    def test_node_counts(self, small_topology, small_params):
        assert len(small_topology.hosts) == small_params.num_hosts
        num_switches = (
            small_params.npod * (small_params.n0 + small_params.n1) + small_params.n2
        )
        assert len(small_topology.switches) == num_switches

    def test_link_counts_match_parameters(self, small_topology, small_params):
        assert len(small_topology.links) == small_params.num_links
        assert small_topology.num_links(directed=True) == 2 * small_params.num_links

    def test_level_partition(self, small_topology, small_params):
        assert len(small_topology.links_of_level(LinkLevel.HOST)) == small_params.num_host_links
        assert len(small_topology.links_of_level(LinkLevel.LEVEL1)) == small_params.num_level1_links
        assert len(small_topology.links_of_level(LinkLevel.LEVEL2)) == small_params.num_level2_links

    def test_tor_t1_complete_bipartite_within_pod(self, small_topology):
        for pod in range(small_topology.params.npod):
            for tor in small_topology.tors(pod):
                for t1 in small_topology.tier1s(pod):
                    assert small_topology.has_link(tor.name, t1.name)

    def test_no_links_across_pods_at_level1(self, small_topology):
        for tor in small_topology.tors(0):
            for t1 in small_topology.tier1s(1):
                assert not small_topology.has_link(tor.name, t1.name)

    def test_t1_t2_complete_bipartite(self, small_topology):
        for pod in range(small_topology.params.npod):
            for t1 in small_topology.tier1s(pod):
                for t2 in small_topology.tier2s():
                    assert small_topology.has_link(t1.name, t2.name)

    def test_expected_hop_count(self, small_topology):
        hosts = sorted(small_topology.hosts)
        same_tor = [h for h in hosts if small_topology.host(h).tor == small_topology.host(hosts[0]).tor]
        assert small_topology.expected_hop_count(same_tor[0], same_tor[1]) == 2
        cross_pod = [h for h in hosts if small_topology.host(h).pod != small_topology.host(hosts[0]).pod]
        assert small_topology.expected_hop_count(hosts[0], cross_pod[0]) == 6

    def test_keyword_construction(self):
        topo = ClosTopology(npod=1, n0=2, n1=2, n2=1, hosts_per_tor=1)
        assert topo.params.npod == 1
        with pytest.raises(TypeError):
            ClosTopology(ClosParameters(), npod=2)

    def test_link_level_lookup(self, small_topology):
        host = sorted(small_topology.hosts)[0]
        tor = small_topology.host(host).tor
        assert small_topology.link_level(Link.of(host, tor)) == LinkLevel.HOST

    def test_optional_tier3(self):
        topo = ClosTopology(npod=1, n0=2, n1=2, n2=2, hosts_per_tor=1, n3=2)
        assert len(topo.switches_of_tier(SwitchTier.T3)) == 2
        assert len(topo.links_of_level(LinkLevel.LEVEL3)) == 4

    def test_validate_passes(self, small_topology):
        small_topology.validate()

    def test_describe_mentions_counts(self, small_topology):
        text = small_topology.describe()
        assert str(len(small_topology.hosts)) in text


def random_params(seed: int) -> ClosParameters:
    rng = random.Random(seed)
    return ClosParameters(
        npod=rng.randint(1, 3),
        n0=rng.randint(1, 12),
        n1=rng.randint(1, 3),
        n2=rng.randint(1, 3),
        hosts_per_tor=rng.randint(1, 11),
        n3=rng.randint(0, 2),
    )


#: the edges first (one pod, one ToR, one host a ToR, a tier 3; ``tor10``
#: and ``host10`` sort before ``tor2``/``host2``), then random sizings.
INDEX_PARAMS = [
    ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=1),
    ClosParameters(npod=1, n0=1, n1=2, n2=1, hosts_per_tor=3),
    ClosParameters(npod=3, n0=2, n1=1, n2=2, hosts_per_tor=1, n3=2),
    ClosParameters(npod=2, n0=12, n1=3, n2=2, hosts_per_tor=11),
] + [random_params(seed) for seed in range(12)]


class TestFabricIndex:
    """Every entry of ``ClosTopology.index`` against the topology's objects."""

    @pytest.mark.parametrize("params", INDEX_PARAMS, ids=str)
    def test_tables_agree_with_the_objects(self, params):
        topo = ClosTopology(params)
        index = topo.index
        hosts = sorted(topo.hosts)
        assert index.hosts == hosts
        assert index.host_names.tolist() == hosts
        assert index.host_ids == {h: i for i, h in enumerate(hosts)}
        switch_of = sorted(topo.switches)
        assert index.switch_ids == {name: i for i, name in enumerate(switch_of)}

        for i, name in enumerate(hosts):
            host = topo.host(name)
            assert switch_of[index.host_tor[i]] == host.tor
            assert index.host_pod[i] == host.pod
            assert index.link_objs[index.up_link[i]] == (name, host.tor)
            assert index.link_objs[index.down_link[i]] == (host.tor, name)
        assert sorted(index.tor_hosts) == [s.name for s in topo.tors()]
        for tor, ids in index.tor_hosts.items():
            assert [hosts[i] for i in ids] == [
                h for h in hosts if topo.host(h).tor == tor
            ]
            assert ids.tolist() == list(range(ids[0], ids[0] + len(ids)))
        assert len(index.pod_hosts) == params.npod
        for pod, ids in enumerate(index.pod_hosts):
            assert [hosts[i] for i in ids] == [
                h for h in hosts if topo.host(h).pod == pod
            ]
            assert ids.tolist() == list(range(ids[0], ids[0] + len(ids)))

        for pod in range(params.npod):
            names = [s.name for s in topo.tier1s(pod)]
            assert index.pod_t1_names[pod] == names
            assert [switch_of[i] for i in index.pod_t1[pod]] == names
        assert index.t2_names == [s.name for s in topo.tier2s()]
        assert [switch_of[i] for i in index.t2] == index.t2_names

        directed = topo.directed_links()
        assert list(index.links) == directed
        assert index.link_objs.tolist() == directed
        assert all(
            index.links[link] is obj for link, obj in zip(directed, index.link_objs)
        )
        expected = np.full((len(switch_of),) * 2, -1)
        for lid, link in enumerate(directed):
            if topo.is_switch(link.src) and topo.is_switch(link.dst):
                expected[index.switch_ids[link.src], index.switch_ids[link.dst]] = lid
        assert np.array_equal(index.switch_link, expected)


class TestSection7Cluster:
    """Figure 13 runs on the paper's test cluster: one pod, 10 ToRs, 40 hosts."""

    @pytest.fixture(scope="class")
    def cluster(self):
        return ClosTopology(fig13.testcluster_config(drop_rate=1e-2).topology_params())

    def test_defaults_match_section7(self, cluster):
        assert cluster.params.npod == 1
        assert len(cluster.tors()) == 10
        assert len(cluster.hosts) == 40

    def test_is_single_pod(self, cluster):
        assert all(s.pod == 0 for s in cluster.tors())
        assert cluster.links_of_level(LinkLevel.LEVEL3) == []

    def test_failure_is_one_t1_to_tor_link(self, cluster):
        config = fig13.testcluster_config(drop_rate=5e-3)
        table = LinkStateTable(cluster, rng=0)
        scenario = inject_failures(config, cluster, table, seed=0)
        (bad,) = scenario.bad_links
        assert cluster.link_level(bad) == LinkLevel.LEVEL1
        assert cluster.switch(bad.src).tier == SwitchTier.T1
        assert scenario.drop_rates[bad] == 5e-3
