"""Unit tests for the traffic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.traffic import (
    HotTorTraffic,
    SkewedTraffic,
    UniformTraffic,
)


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
