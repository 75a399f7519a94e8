"""Unit tests for the flow-level TCP transfer model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.links import LinkStateTable
from repro.netsim.tcp import simulate_transfer, simulate_transfers_batch
from repro.routing.paths import Path
from repro.topology.clos import ClosTopology
from repro.topology.elements import DirectedLink


@pytest.fixture(scope="module")
def fabric():
    topology = ClosTopology(npod=1, n0=2, n1=2, n2=1, hosts_per_tor=2)
    table = LinkStateTable(topology, noise_high=0.0, rng=0)
    hosts = sorted(topology.hosts)
    src, dst = hosts[0], hosts[2]
    tor_src = topology.host(src).tor
    tor_dst = topology.host(dst).tor
    t1 = topology.tier1s(0)[0].name
    path = Path.from_nodes([src, tor_src, t1, tor_dst, dst])
    return topology, table, path


class TestLosslessTransfer:
    def test_all_packets_delivered(self, fabric):
        _, table, path = fabric
        result = simulate_transfer(path, 100, table, rng=0)
        assert result.packets_delivered == 100
        assert result.retransmissions == 0
        assert not result.has_retransmission
        assert not result.connection_failed
        assert result.dominant_drop_link() is None

    def test_zero_packets(self, fabric):
        _, table, path = fabric
        result = simulate_transfer(path, 0, table, rng=0)
        assert result.packets_delivered == 0
        assert result.retransmissions == 0

    def test_negative_packets_raise(self, fabric):
        _, table, path = fabric
        with pytest.raises(ValueError):
            simulate_transfer(path, -1, table)

    def test_invalid_rounds_raise(self, fabric):
        _, table, path = fabric
        with pytest.raises(ValueError):
            simulate_transfer(path, 10, table, max_rounds=0)


class TestLossyTransfer:
    def test_blackhole_drops_everything_on_first_link(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[0], 1.0)
        result = simulate_transfer(path, 50, table, rng=0, max_rounds=2)
        assert result.packets_delivered == 0
        assert result.connection_failed
        assert result.drops_by_link[path.links[0]] == 100  # 2 rounds x 50 packets
        table.reset_noise(rng=0)

    def test_drops_attributed_to_lossy_link(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        lossy = path.links[1]
        table.inject_failure(lossy, 0.2)
        result = simulate_transfer(path, 200, table, rng=1)
        assert result.has_retransmission
        assert result.dominant_drop_link() == lossy
        assert result.drops_by_link[lossy] > 0
        table.reset_noise(rng=0)

    def test_retransmissions_equal_total_drops(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[1], 0.1)
        result = simulate_transfer(path, 100, table, rng=2)
        assert result.retransmissions == result.total_drops
        table.reset_noise(rng=0)

    def test_delivery_plus_loss_conservation(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[2], 0.5)
        result = simulate_transfer(path, 100, table, rng=3, max_rounds=3)
        assert result.packets_delivered + result.packets_lost == 100
        table.reset_noise(rng=0)

    def test_more_rounds_deliver_more(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[0], 0.5)
        one_round = simulate_transfer(path, 200, table, rng=4, max_rounds=1)
        many_rounds = simulate_transfer(path, 200, table, rng=4, max_rounds=5)
        assert many_rounds.packets_delivered >= one_round.packets_delivered
        table.reset_noise(rng=0)

    def test_dominant_link_tie_break_is_deterministic(self):
        topology = ClosTopology(npod=1, n0=2, n1=1, n2=1, hosts_per_tor=1)
        table = LinkStateTable(topology, noise_high=0.0, rng=0)
        hosts = sorted(topology.hosts)
        path = Path.from_nodes(
            [hosts[0], topology.host(hosts[0]).tor, topology.tier1s(0)[0].name,
             topology.host(hosts[1]).tor, hosts[1]]
        )
        from repro.netsim.tcp import TransferResult

        result = TransferResult(
            num_packets=2,
            packets_delivered=0,
            packets_lost=2,
            retransmissions=2,
            drops_by_link={path.links[0]: 1, path.links[1]: 1},
        )
        assert result.dominant_drop_link() == min(path.links[0], path.links[1])


class TestBatchedTransfer:
    def test_empty_batch(self, fabric):
        _, table, _ = fabric
        assert simulate_transfers_batch([], [], table, rng=0) == []

    def test_mismatched_lengths_raise(self, fabric):
        _, table, path = fabric
        with pytest.raises(ValueError):
            simulate_transfers_batch([path], [10, 20], table)

    def test_negative_packets_raise(self, fabric):
        _, table, path = fabric
        with pytest.raises(ValueError):
            simulate_transfers_batch([path], [-1], table)

    def test_lossless_batch_delivers_everything(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        results = simulate_transfers_batch([path] * 10, 100, table, rng=0)
        assert all(r.packets_delivered == 100 for r in results)
        assert all(not r.has_retransmission for r in results)

    def test_scalar_packet_count_broadcasts(self, fabric):
        _, table, path = fabric
        results = simulate_transfers_batch([path, path, path], 25, table, rng=0)
        assert [r.num_packets for r in results] == [25, 25, 25]

    def test_conservation_per_flow(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[1], 0.3)
        results = simulate_transfers_batch([path] * 50, 100, table, rng=1, max_rounds=3)
        for r in results:
            assert r.packets_delivered + r.packets_lost == 100
            assert r.retransmissions == r.total_drops
        table.reset_noise(rng=0)

    def test_blackhole_fails_every_flow(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[0], 1.0)
        results = simulate_transfers_batch([path] * 5, [40] * 5, table, rng=0, max_rounds=2)
        for r in results:
            assert r.connection_failed
            assert r.drops_by_link[path.links[0]] == 80  # 2 rounds x 40 packets
        table.reset_noise(rng=0)

    def test_mixed_path_lengths(self, fabric):
        topology, table, long_path = fabric
        hosts = sorted(topology.hosts)
        short_path = Path.from_nodes([hosts[0], topology.host(hosts[0]).tor, hosts[1]])
        table.reset_noise(rng=0)
        table.inject_failure(long_path.links[1], 0.5)
        results = simulate_transfers_batch(
            [short_path, long_path], [30, 30], table, rng=2
        )
        assert results[0].packets_delivered == 30  # short path is clean
        assert set(results[1].drops_by_link) <= set(long_path.links)
        table.reset_noise(rng=0)

    def test_distribution_matches_scalar_model(self, fabric):
        """Batch and scalar sampling draw from the same distribution."""
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[1], 0.05)
        rng = np.random.default_rng(7)
        batch = simulate_transfers_batch([path] * 400, 100, table, rng=rng)
        rng = np.random.default_rng(8)
        scalar = [simulate_transfer(path, 100, table, rng=rng) for _ in range(400)]
        batch_mean = np.mean([r.retransmissions for r in batch])
        scalar_mean = np.mean([r.retransmissions for r in scalar])
        # ~5 expected drops per flow; sample means over 400 flows are tight.
        assert abs(batch_mean - scalar_mean) < 1.0
        table.reset_noise(rng=0)


class TestAnalyticProbability:
    def test_matches_monte_carlo(self, fabric):
        _, table, path = fabric
        table.reset_noise(rng=0)
        table.inject_failure(path.links[1], 0.01)
        # P(>= 1 retransmission) = 1 - prod over the path of (1 - p_link)^n
        keep = [(1.0 - table.drop_probability(link)) ** 100 for link in path.links]
        analytic = 1.0 - np.prod(keep)
        rng = np.random.default_rng(0)
        hits = sum(
            simulate_transfer(path, 100, table, rng=rng).has_retransmission
            for _ in range(300)
        )
        assert abs(hits / 300 - analytic) < 0.12
        table.reset_noise(rng=0)
