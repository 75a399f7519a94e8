"""Unit tests for failure injection and the VM-reboot model."""

from __future__ import annotations

import pytest

from repro.netsim.failures import (
    FailureInjector,
    FailureScenario,
    TransientFailure,
    TransientFailureSchedule,
    VmRebootModel,
)
from repro.netsim.flows import FlowRecord
from repro.netsim.links import LinkStateTable
from repro.netsim.tcp import TransferResult
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.topology.elements import DirectedLink, LinkLevel


@pytest.fixture()
def injector(small_topology, link_table):
    return FailureInjector(small_topology, link_table, rng=0)


class TestRandomFailures:
    def test_requested_count(self, injector, link_table):
        scenario = injector.inject_random_failures(4)
        assert scenario.num_failures == 4
        assert link_table.failed_links == set(scenario.bad_links)

    def test_rates_within_range(self, injector):
        scenario = injector.inject_random_failures(5, drop_rate_range=(1e-3, 2e-3))
        assert all(1e-3 <= r <= 2e-3 for r in scenario.drop_rates.values())

    def test_level_restriction(self, small_topology, injector):
        scenario = injector.inject_random_failures(3, levels=(LinkLevel.LEVEL2,))
        for link in scenario.bad_links:
            assert small_topology.link_level(link) == LinkLevel.LEVEL2

    def test_too_many_failures_raise(self, injector):
        with pytest.raises(ValueError):
            injector.inject_random_failures(10_000)

    def test_links_are_distinct(self, injector):
        scenario = injector.inject_random_failures(8)
        assert len(set(scenario.bad_links)) == 8


class TestTargetedFailures:
    def test_level_failure_upward(self, small_topology, injector):
        scenario = injector.inject_failure_on_level(LinkLevel.LEVEL1, 0.01, downward=False)
        link = scenario.bad_links[0]
        assert small_topology.switch(link.dst).tier.name == "T1"

    def test_level_failure_downward(self, small_topology, injector):
        scenario = injector.inject_failure_on_level(LinkLevel.LEVEL1, 0.01, downward=True)
        link = scenario.bad_links[0]
        assert small_topology.switch(link.src).tier.name == "T1"

    def test_host_level_failure_orientation(self, small_topology, injector):
        scenario = injector.inject_failure_on_level(LinkLevel.HOST, 0.01, downward=False)
        link = scenario.bad_links[0]
        assert small_topology.is_host(link.src)

    def test_skewed_failures_have_dominant_link(self, injector):
        scenario = injector.inject_skewed_failures(5)
        rates = sorted(scenario.drop_rates.values(), reverse=True)
        assert rates[0] >= 0.1
        assert all(r <= 1e-3 for r in rates[1:])


class TestTransientFailures:
    def test_active_window(self):
        failure = TransientFailure(DirectedLink("a", "b"), 0.1, start_epoch=2, duration_epochs=3)
        assert not failure.active(1)
        assert failure.active(2) and failure.active(4)
        assert not failure.active(5)

    def test_schedule_applies_and_clears(self, small_topology, link_table):
        schedule = TransientFailureSchedule(link_table)
        link = small_topology.directed_links()[0]
        schedule.add(TransientFailure(link, 0.2, start_epoch=1, duration_epochs=1))
        assert schedule.apply_epoch(0).num_failures == 0
        assert not link_table.is_failed(link)
        assert schedule.apply_epoch(1).num_failures == 1
        assert link_table.is_failed(link)
        assert schedule.apply_epoch(2).num_failures == 0
        assert not link_table.is_failed(link)


class TestVmRebootModel:
    def _flow(self, kind: str, retransmissions: int, failed: bool = False) -> FlowRecord:
        path = Path.from_nodes(["h1", "tor1", "h2"])
        result = TransferResult(
            num_packets=10,
            packets_delivered=0 if failed else 10 - retransmissions,
            packets_lost=10 if failed else 0,
            retransmissions=retransmissions,
            drops_by_link={path.links[0]: retransmissions} if retransmissions else {},
            connection_failed=failed,
        )
        return FlowRecord(
            flow_id=1,
            epoch=0,
            five_tuple=FiveTuple("h1", "h2", 1000, 445),
            src_host="h1",
            dst_host="h2",
            path=path,
            result=result,
            kind=kind,
        )

    def test_data_flows_never_reboot(self):
        model = VmRebootModel()
        assert model.reboots_for_epoch([self._flow("data", 10, failed=True)]) == []

    def test_storage_flow_below_threshold_no_reboot(self):
        model = VmRebootModel(retransmission_threshold=5)
        assert model.reboots_for_epoch([self._flow("storage", 2)]) == []

    def test_storage_flow_over_threshold_reboots(self):
        model = VmRebootModel(retransmission_threshold=3)
        reboots = model.reboots_for_epoch([self._flow("storage", 4)])
        assert len(reboots) == 1
        assert reboots[0].host == "h1"
        assert reboots[0].cause_link is not None

    def test_failed_connection_always_reboots(self):
        model = VmRebootModel(retransmission_threshold=100)
        assert len(model.reboots_for_epoch([self._flow("storage", 0, failed=True)])) == 1

    def test_host_reboots_at_most_once_per_epoch(self):
        model = VmRebootModel(retransmission_threshold=1)
        flows = [self._flow("storage", 5), self._flow("storage", 6)]
        assert len(model.reboots_for_epoch(flows)) == 1

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            VmRebootModel(retransmission_threshold=0)


class TestTransientScheduleVmRebootInterplay:
    """A flap on a storage path must cause reboots only while it is active.

    Drives the real :class:`~repro.netsim.simulator.EpochSimulator` with a
    replayed storage flow whose host uplink flaps during epochs [1, 3): the
    VM reboots exactly in those epochs and never outside the window.
    """

    def test_flap_on_storage_path_reboots_only_during_active_epochs(
        self, small_topology
    ):
        from types import SimpleNamespace

        from repro.netsim.simulator import EpochSimulator
        from repro.netsim.traffic import TrafficDemand
        from repro.routing.ecmp import EcmpRouter
        from repro.testing import pair_of_hosts

        link_table = LinkStateTable(small_topology, rng=0)
        router = EcmpRouter(small_topology, rng=0)
        src, dst = pair_of_hosts(small_topology)
        demand = TrafficDemand(
            src_host=src, dst_host=dst, num_packets=30, kind="storage"
        )
        # the same single storage demand every epoch
        traffic = SimpleNamespace(generate=lambda epoch, rng: [demand])
        simulator = EpochSimulator(
            topology=small_topology,
            router=router,
            link_table=link_table,
            traffic=traffic,
            rng=1,
        )

        schedule = TransientFailureSchedule(link_table)
        uplink = DirectedLink(src, small_topology.host(src).tor)
        schedule.add(
            TransientFailure(
                link=uplink, drop_rate=1.0, start_epoch=1, duration_epochs=2
            )
        )
        model = VmRebootModel(retransmission_threshold=3)

        reboot_epochs = set()
        for epoch in range(5):
            schedule.apply_epoch(epoch)
            result = simulator.run_epoch(epoch)
            for reboot in model.reboots_for_epoch(result.flows):
                assert reboot.host == src
                assert reboot.storage_host == dst
                reboot_epochs.add(reboot.epoch)
        assert reboot_epochs == {1, 2}


class TestTransientBaselineRestoration:
    """Transients must compose with static failures instead of erasing them."""

    def test_clearing_a_flap_restores_a_static_failure_on_the_same_link(
        self, small_topology, link_table
    ):
        link = DirectedLink("pod0-tor0", "pod0-t1-0")
        link_table.inject_failure(link, 0.02)
        schedule = TransientFailureSchedule(link_table)
        schedule.add(
            TransientFailure(link=link, drop_rate=0.3, start_epoch=0, duration_epochs=1)
        )
        schedule.apply_epoch(0)
        assert link_table.drop_probability(link) == 0.3
        schedule.apply_epoch(1)
        assert link_table.is_failed(link)
        assert link_table.drop_probability(link) == 0.02

    def test_clearing_a_flap_restores_a_static_failure_on_the_reverse(
        self, small_topology, link_table
    ):
        forward = DirectedLink("pod0-tor0", "pod0-t1-0")
        reverse = forward.reversed()
        link_table.inject_failure(reverse, 0.05)
        schedule = TransientFailureSchedule(link_table)
        schedule.add(
            TransientFailure(
                link=forward, drop_rate=0.3, start_epoch=0, duration_epochs=1
            )
        )
        schedule.apply_epoch(0)
        schedule.apply_epoch(1)
        # clear_failure resets both directions; the schedule must put the
        # reverse's static failure back
        assert link_table.is_failed(reverse)
        assert link_table.drop_probability(reverse) == 0.05
        assert not link_table.is_failed(forward)

    def test_expiring_drain_restores_static_failure_both_directions_quiet(
        self, small_topology, link_table
    ):
        physical = small_topology.links_of_level(LinkLevel.LEVEL1)[0]
        forward, reverse = physical.directions()
        link_table.inject_failure(forward, 0.01)
        schedule = TransientFailureSchedule(link_table)
        for direction in physical.directions():
            schedule.add(
                TransientFailure(
                    link=direction,
                    drop_rate=1.0,
                    start_epoch=0,
                    duration_epochs=2,
                    blackhole=True,
                )
            )
        schedule.apply_epoch(0)
        assert link_table.is_down(physical)
        schedule.apply_epoch(2)
        assert not link_table.is_down(physical)
        assert link_table.drop_probability(forward) == 0.01
        assert not link_table.is_failed(reverse)

    def test_overlapping_transients_report_the_applied_rate(
        self, small_topology, link_table
    ):
        physical = small_topology.links_of_level(LinkLevel.LEVEL1)[0]
        forward, reverse = physical.directions()
        schedule = TransientFailureSchedule(link_table)
        # a drain (both directions, blackhole) overlapping a milder flap on
        # the forward direction: the blackhole must win and be reported
        for direction in physical.directions():
            schedule.add(
                TransientFailure(
                    link=direction,
                    drop_rate=1.0,
                    start_epoch=0,
                    duration_epochs=3,
                    blackhole=True,
                )
            )
        schedule.add(
            TransientFailure(
                link=forward, drop_rate=0.05, start_epoch=1, duration_epochs=1
            )
        )
        truth = schedule.apply_epoch(1)
        assert truth.drop_rates[forward] == 1.0
        assert link_table.drop_probability(forward) == 1.0
        assert link_table.is_down(physical)
        # after everything expires, the link returns to noise
        schedule.apply_epoch(3)
        assert not link_table.is_down(physical)
        assert not link_table.is_failed(forward)

    def test_two_flaps_same_link_most_severe_wins(self, small_topology, link_table):
        link = DirectedLink("pod0-tor0", "pod0-t1-0")
        schedule = TransientFailureSchedule(link_table)
        schedule.add(
            TransientFailure(link=link, drop_rate=0.2, start_epoch=0, duration_epochs=2)
        )
        schedule.add(
            TransientFailure(link=link, drop_rate=0.1, start_epoch=1, duration_epochs=2)
        )
        truth = schedule.apply_epoch(1)
        assert truth.drop_rates[link] == 0.2
        assert link_table.drop_probability(link) == 0.2
        truth = schedule.apply_epoch(2)  # only the milder flap remains
        assert truth.drop_rates[link] == 0.1
        assert link_table.drop_probability(link) == 0.1
