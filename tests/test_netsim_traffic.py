"""Unit tests for the traffic generators."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.netsim.traffic import (
    HotTorTraffic,
    SkewedTraffic,
    TrafficDemand,
    UniformTraffic,
    _sample_connection_count,
    _sample_packets,
)
from repro.topology.clos import ClosParameters, ClosTopology


class TestUniformTraffic:
    def test_connection_count_per_host(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=5, packets_per_flow=10)
        demands = traffic.generate(0, rng=0)
        assert len(demands) == 5 * len(small_topology.hosts)

    def test_destinations_outside_rack(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=10)
        for demand in traffic.generate(0, rng=0):
            src_tor = small_topology.host(demand.src_host).tor
            dst_tor = small_topology.host(demand.dst_host).tor
            assert src_tor != dst_tor

    def test_packets_fixed_value(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=3, packets_per_flow=42)
        assert all(d.num_packets == 42 for d in traffic.generate(0, rng=0))

    def test_packets_range(self, small_topology):
        traffic = UniformTraffic(
            small_topology, connections_per_host=20, packets_per_flow=(10, 20)
        )
        packets = [d.num_packets for d in traffic.generate(0, rng=0)]
        assert min(packets) >= 10 and max(packets) <= 20
        assert len(set(packets)) > 1

    def test_connection_range(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=(1, 4))
        demands = traffic.generate(0, rng=0)
        per_host = {}
        for demand in demands:
            per_host[demand.src_host] = per_host.get(demand.src_host, 0) + 1
        assert all(1 <= count <= 4 for count in per_host.values())

    def test_deterministic_for_seed(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=4)
        assert traffic.generate(0, rng=7) == traffic.generate(0, rng=7)

    def test_default_kind_is_data(self, small_topology):
        traffic = UniformTraffic(small_topology, connections_per_host=1)
        assert all(d.kind == "data" for d in traffic.generate(0, rng=0))


class TestSkewedTraffic:
    def test_hot_fraction_respected(self, small_topology):
        traffic = SkewedTraffic(
            small_topology,
            connections_per_host=30,
            num_hot_tors=1,
            hot_fraction=0.9,
        )
        hot = set(traffic.hot_tors)
        demands = traffic.generate(0, rng=0)
        to_hot = sum(
            1 for d in demands if small_topology.host(d.dst_host).tor in hot
        )
        assert to_hot / len(demands) > 0.5

    def test_explicit_hot_tor_names(self, small_topology):
        tor = small_topology.tors(0)[1].name
        traffic = SkewedTraffic(small_topology, hot_tors=[tor], connections_per_host=2)
        assert traffic.hot_tors == [tor]

    def test_unknown_hot_tor_raises(self, small_topology):
        with pytest.raises(ValueError):
            SkewedTraffic(small_topology, hot_tors=["nonexistent"])

    def test_invalid_fraction_raises(self, small_topology):
        with pytest.raises(ValueError):
            SkewedTraffic(small_topology, hot_fraction=1.5)


class TestHotTorTraffic:
    def test_single_sink(self, small_topology):
        traffic = HotTorTraffic(small_topology, skew=0.7, connections_per_host=30)
        sink = traffic.hot_tor
        demands = traffic.generate(0, rng=1)
        to_sink = sum(
            1 for d in demands if small_topology.host(d.dst_host).tor == sink
        )
        assert to_sink / len(demands) > 0.4

    def test_default_sink_is_first_tor(self, small_topology):
        traffic = HotTorTraffic(small_topology)
        assert traffic.hot_tor == small_topology.tors()[0].name


# ----------------------------------------------------------------------
# the per-host scan the generators drew from before the fabric index
# ----------------------------------------------------------------------
def scan_demands(topology, rng, connections, packets, hot_tors=None, hot_fraction=0.0):
    """One epoch's demands as the generators computed them before the fabric
    index: every connection lists its candidates by scanning all hosts.
    ``hot_tors=None`` is uniform traffic; otherwise the skewed pick."""
    hosts = sorted(topology.hosts)
    tor = {h: topology.host(h).tor for h in hosts}
    hot_hosts = [h for h in hosts if tor[h] in set(hot_tors or ())]

    def outside_rack(src):
        return [h for h in hosts if tor[h] != tor[src]]

    def pick(src):
        if hot_tors is None:
            candidates = outside_rack(src)
        else:
            if rng.random() < hot_fraction:
                candidates = [h for h in hot_hosts if tor[h] != tor[src]]
            else:
                candidates = outside_rack(src)
            if not candidates:
                candidates = outside_rack(src)
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]

    demands = []
    for src in hosts:
        for _ in range(_sample_connection_count(rng, connections)):
            dst = pick(src)
            if dst is None or dst == src:
                continue
            demands.append(TrafficDemand(src, dst, _sample_packets(rng, packets)))
    return demands


#: one ToR in all (no destination anywhere), one pod, ``tor10`` beside
#: ``tor1``, then random sizings.
SCAN_PARAMS = [
    ClosParameters(npod=1, n0=1, n1=1, n2=1, hosts_per_tor=3),
    ClosParameters(npod=1, n0=3, n1=2, n2=1, hosts_per_tor=1),
    ClosParameters(npod=2, n0=11, n1=1, n2=2, hosts_per_tor=2),
] + [
    ClosParameters(
        npod=r.randint(1, 3),
        n0=r.randint(1, 6),
        n1=r.randint(1, 3),
        n2=r.randint(1, 3),
        hosts_per_tor=r.randint(1, 4),
    )
    for r in map(random.Random, range(8))
]


class TestDemandsMatchTheHostScan:
    @pytest.mark.parametrize("params", SCAN_PARAMS, ids=str)
    def test_every_generator_draws_what_the_scan_drew(self, params):
        topo = ClosTopology(params)
        tors = [s.name for s in topo.tors()]
        r = random.Random(str(params))
        for seed in range(4):
            connections = r.choice([3, (0, 4)])
            packets = r.choice([10, (1, 50)])
            hot = r.sample(tors, r.randint(0, len(tors)))
            fraction = r.choice([0.0, 0.5, 0.9, 1.0])
            cases = [
                (UniformTraffic(topo, connections, packets), None, 0.0),
                (
                    SkewedTraffic(
                        topo, connections, packets, hot_tors=hot, hot_fraction=fraction
                    ),
                    hot,
                    fraction,
                ),
                (
                    HotTorTraffic(topo, tors[-1], fraction, connections, packets),
                    [tors[-1]],
                    fraction,
                ),
            ]
            for traffic, hot_tors, hot_fraction in cases:
                expected = scan_demands(
                    topo,
                    np.random.default_rng(seed),
                    connections,
                    packets,
                    hot_tors,
                    hot_fraction,
                )
                assert traffic.generate(seed, rng=seed) == expected
                if len(tors) == 1:
                    assert expected == []
                    assert traffic.pick_destination(
                        np.random.default_rng(seed), sorted(topo.hosts)[0]
                    ) is None
