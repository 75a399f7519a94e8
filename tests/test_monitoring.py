"""Unit tests for the TCP monitoring agent."""

from __future__ import annotations

import pytest

from repro.testing import pair_of_hosts
from repro.discovery.agent import PathDiscoveryAgent
from repro.discovery.icmp import IcmpRateLimiter
from repro.discovery.traceroute import TracerouteEngine
from repro.monitoring.agent import TcpMonitoringAgent
from repro.netsim.events import ConnectionSetupFailureEvent, RetransmissionEvent
from repro.routing.fivetuple import FiveTuple


@pytest.fixture()
def monitoring(small_topology, router, link_table):
    engine = TracerouteEngine(router, link_table, IcmpRateLimiter(), rng=0, probe_loss=False)
    discovery = PathDiscoveryAgent(engine)
    return TcpMonitoringAgent(discovery)


def _retx_event(flow_id, src, dst, epoch=0):
    return RetransmissionEvent(
        flow_id=flow_id,
        epoch=epoch,
        src_host=src,
        dst_host=dst,
        five_tuple=FiveTuple(src, dst, 1000 + flow_id, 443),
        retransmissions=1,
    )


class TestTcpMonitoringAgent:
    def test_retransmission_triggers_discovery(self, small_topology, monitoring):
        src, dst = pair_of_hosts(small_topology)
        monitoring.handle_event(_retx_event(1, src, dst))
        assert monitoring.stats.retransmission_events == 1
        assert monitoring.stats.paths_discovered == 1
        paths = monitoring.paths_for_epoch(0)
        assert len(paths) == 1
        assert paths[0].flow_id == 1

    def test_setup_failures_are_counted_not_traced(self, small_topology, monitoring):
        src, dst = pair_of_hosts(small_topology)
        event = ConnectionSetupFailureEvent(
            flow_id=9, epoch=0, src_host=src, dst_host=dst,
            five_tuple=FiveTuple(src, dst, 1000, 443),
        )
        monitoring.handle_event(event)
        assert monitoring.stats.setup_failure_events == 1
        assert monitoring.paths_for_epoch(0) == []

    def test_duplicate_events_do_not_duplicate_paths(self, small_topology, monitoring):
        src, dst = pair_of_hosts(small_topology)
        monitoring.handle_event(_retx_event(1, src, dst))
        monitoring.handle_event(_retx_event(1, src, dst))
        assert len(monitoring.paths_for_epoch(0)) == 1

    def test_paths_grouped_by_epoch(self, small_topology, monitoring):
        src, dst = pair_of_hosts(small_topology)
        monitoring.handle_event(_retx_event(1, src, dst, epoch=0))
        monitoring.handle_event(_retx_event(2, src, dst, epoch=1))
        assert len(monitoring.paths_for_epoch(0)) == 1
        assert len(monitoring.paths_for_epoch(1)) == 1

    def test_clear_epoch(self, small_topology, monitoring):
        src, dst = pair_of_hosts(small_topology)
        monitoring.handle_event(_retx_event(1, src, dst))
        monitoring.clear_epoch(0)
        assert monitoring.paths_for_epoch(0) == []

    def test_unknown_event_types_ignored(self, monitoring):
        monitoring.handle_event("not-an-event")
        assert monitoring.stats.retransmission_events == 0
