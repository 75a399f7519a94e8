"""Unit tests for the epoch-driven flow-level simulator."""

from __future__ import annotations

import pytest

from repro.netsim.events import ConnectionSetupFailureEvent, RetransmissionEvent
from repro.netsim.links import LinkStateTable
from repro.netsim.simulator import EpochSimulator, SimulationConfig
from repro.netsim.traffic import TrafficDemand, UniformTraffic
from repro.routing.ecmp import EcmpRouter
from repro.slb.loadbalancer import SoftwareLoadBalancer
from repro.topology.elements import DirectedLink


@pytest.fixture()
def simulator(small_topology, router, link_table):
    traffic = UniformTraffic(small_topology, connections_per_host=5, packets_per_flow=50)
    return EpochSimulator(
        small_topology,
        router,
        link_table,
        traffic,
        config=SimulationConfig(simulate_setup_failures=False),
        rng=0,
    )


class TestEpochSimulation:
    def test_flow_counts(self, small_topology, simulator):
        result = simulator.run_epoch(0)
        assert result.num_flows == 5 * len(small_topology.hosts)
        assert all(f.epoch == 0 for f in result.flows)

    def test_unique_flow_ids_across_epochs(self, simulator):
        results = simulator.run(2)
        ids = [f.flow_id for r in results for f in r.flows]
        assert len(ids) == len(set(ids))

    def test_paths_match_endpoints(self, simulator):
        result = simulator.run_epoch(0)
        for flow in result.flows:
            assert flow.path.src == flow.src_host
            assert flow.path.dst == flow.dst_host

    def test_no_failures_no_retransmission_events(self, small_topology, router):
        table = LinkStateTable(small_topology, noise_high=0.0, rng=0)
        traffic = UniformTraffic(small_topology, connections_per_host=3)
        sim = EpochSimulator(small_topology, router, table, traffic, rng=0)
        result = sim.run_epoch(0)
        assert result.retransmission_events == []
        assert result.total_drops == 0

    def test_failure_generates_events(self, small_topology, router, link_table, simulator):
        # Fail every uplink of one ToR so that flows from its hosts must hit it.
        tor = small_topology.tors(0)[0]
        for t1 in small_topology.tier1s(0):
            link_table.inject_failure(DirectedLink(tor.name, t1.name), 0.5)
        result = simulator.run_epoch(0)
        assert len(result.retransmission_events) > 0
        assert result.total_drops > 0
        flow_ids_with_events = {e.flow_id for e in result.retransmission_events}
        flows_with_retx = {f.flow_id for f in result.flows if f.has_retransmission}
        assert flow_ids_with_events == flows_with_retx

    def test_subscribers_receive_events(self, small_topology, router, link_table):
        link = small_topology.directed_links()[0]
        link_table.inject_failure(link, 0.9)
        traffic = UniformTraffic(small_topology, connections_per_host=10, packets_per_flow=50)
        sim = EpochSimulator(small_topology, router, link_table, traffic, rng=0)
        received = []
        sim.subscribe(received.append)
        result = sim.run_epoch(0)
        retx_events = [e for e in received if isinstance(e, RetransmissionEvent)]
        assert len(retx_events) == len(result.retransmission_events)

    def test_explicit_demands_override_generator(self, small_topology, simulator):
        hosts = sorted(small_topology.hosts)
        demands = [TrafficDemand(hosts[0], hosts[-1], 10)]
        result = simulator.run_epoch(0, demands=demands)
        assert result.num_flows == 1
        assert result.flows[0].src_host == hosts[0]

    def test_drops_by_flow_only_positive(self, small_topology, router, link_table, simulator):
        link = small_topology.directed_links()[0]
        link_table.inject_failure(link, 0.3)
        result = simulator.run_epoch(0)
        assert all(v > 0 for v in result.drops_by_flow().values())


class TestSlbIntegration:
    def test_app_tuple_uses_vip_and_data_path_uses_dip(self, small_topology, router, link_table):
        slb = SoftwareLoadBalancer(rng=0)
        traffic = UniformTraffic(small_topology, connections_per_host=2, packets_per_flow=10)
        sim = EpochSimulator(
            small_topology, router, link_table, traffic, slb=slb,
            config=SimulationConfig(simulate_setup_failures=False), rng=0,
        )
        result = sim.run_epoch(0)
        for flow in result.flows:
            assert flow.five_tuple.dst_ip.startswith("vip:")
            assert slb.query_dip(flow.five_tuple) == flow.dst_host

    def test_kind_selects_destination_port(self, small_topology, router, link_table, simulator):
        hosts = sorted(small_topology.hosts)
        demands = [TrafficDemand(hosts[0], hosts[-1], 10, kind="storage")]
        result = simulator.run_epoch(0, demands=demands)
        assert result.flows[0].five_tuple.dst_port == 445
        assert result.flows[0].kind == "storage"


class TestSetupFailures:
    def test_blackholed_path_yields_setup_failure(self, small_topology, router):
        table = LinkStateTable(small_topology, noise_high=0.0, rng=0)
        hosts = sorted(small_topology.hosts)
        src = hosts[0]
        host_link = [l for l in small_topology.directed_links() if l.src == src][0]
        table.set_link_down(host_link.undirected())
        traffic = UniformTraffic(small_topology, connections_per_host=1, packets_per_flow=10)
        sim = EpochSimulator(
            small_topology, router, table, traffic,
            config=SimulationConfig(simulate_setup_failures=True), rng=0,
        )
        result = sim.run_epoch(0)
        failures_from_src = [e for e in result.setup_failures if e.src_host == src]
        assert failures_from_src
        # Setup failures never produce retransmission events for that flow.
        failed_ids = {e.flow_id for e in failures_from_src}
        assert failed_ids.isdisjoint({e.flow_id for e in result.retransmission_events})
