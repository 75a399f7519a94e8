"""Tests for the declarative time-varying scenario scripts."""

from __future__ import annotations

import pickle

import pytest

from repro.loadgen import EvidenceLoadGenerator
from repro.netsim.failures import TransientFailure, TransientFailureSchedule
from repro.netsim.links import LinkStateTable
from repro.netsim.script import (
    CongestionBurst,
    FabricExpansion,
    LinecardFailure,
    LinkDrain,
    LinkFlap,
    ScenarioScript,
    SwitchReboot,
    TrafficShift,
)
from repro.netsim.traffic import HotTorTraffic, SkewedTraffic, UniformTraffic
from repro.routing.ecmp import EcmpRouter
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink, Link, LinkLevel, SwitchTier


def cross_pod_routes(router, topology):
    """The routes of a fixed set of cross-pod flows: a reseed of any switch
    moves some of them."""
    hosts = sorted(topology.hosts)
    return [
        router.route(FiveTuple(src, dst, port, 443), src, dst).nodes()
        for src in hosts
        for dst in hosts
        if topology.host(src).pod != topology.host(dst).pod
        for port in range(1000, 1004)
    ]


class TestScriptBuilder:
    def test_chaining_and_len(self):
        script = (
            ScenarioScript()
            .flap(start=1, duration=2)
            .burst(start=4, duration=1)
            .reboot_switch(epoch=6)
            .drain(start=8, duration=2)
            .add(TrafficShift(epoch=3, traffic="skewed"))
        )
        assert len(script) == 5

    def test_horizon_is_first_epoch_after_all_events(self):
        script = ScenarioScript().flap(start=1, duration=2).burst(start=4, duration=3)
        assert script.horizon == 7

    def test_empty_script_horizon(self):
        assert ScenarioScript().horizon == 0

    @pytest.mark.parametrize(
        "event, horizon",
        [
            (LinkFlap(start_epoch=2, duration_epochs=3), 5),
            (CongestionBurst(start_epoch=1, duration_epochs=2), 3),
            # the reseed fires in the epoch after the outage
            (SwitchReboot(epoch=2, outage_epochs=2), 5),
            (SwitchReboot(epoch=2, outage_epochs=0), 4),  # an outage lasts an epoch
            (LinkDrain(start_epoch=4, duration_epochs=1), 5),
            (LinecardFailure(start_epoch=0, duration_epochs=3), 3),
            (FabricExpansion(epoch=3), 4),  # the cutover epoch is simulated
            (TrafficShift(epoch=6), 7),
        ],
    )
    def test_each_event_kind_sets_the_horizon(self, event, horizon):
        assert ScenarioScript().add(event).horizon == horizon

    def test_scripts_are_picklable(self):
        # the sweep runner ships configs (including scripts) to worker processes
        script = (
            ScenarioScript()
            .flap(start=1, duration=2, drop_rate=5e-3, level=LinkLevel.LEVEL2)
            .burst(start=3, duration=1, num_links=2)
            .add(TrafficShift(5, "hot_tor"))
        )
        clone = pickle.loads(pickle.dumps(script))
        assert clone.events == script.events


#: a script the small fabric cannot hold -> the field its refusal names.
#: Before one resolver: the drain put the missing link into the ground
#: truth, the reboot did nothing, the linecard raised in the simulator only
#: and the flap raised ``KeyError`` when its epoch was applied.
UNHOLDABLE_SCRIPTS = {
    "flap-missing-link": (
        ScenarioScript().flap(0, 1).flap(2, 1, link=DirectedLink("pod0-tor0", "t2-0")),
        r"events\[1\]\.link",
    ),
    "drain-missing-link": (
        ScenarioScript().drain(0, 1, link=Link.of("pod0-tor0", "pod1-tor0")),
        r"events\[0\]\.link",
    ),
    "reboot-unknown-switch": (
        ScenarioScript().reboot_switch(0, switch="pod9-t1-0"),
        r"events\[0\]\.switch",
    ),
    "reboot-of-a-host": (
        ScenarioScript().reboot_switch(0, switch="pod0-tor0-host0"),
        r"events\[0\]\.switch",
    ),
    "linecard-unknown-switch": (
        ScenarioScript().flap(0, 1).linecard(0, 1, switch="t2-9"),
        r"events\[1\]\.switch",
    ),
    "expand-unknown-switch": (
        ScenarioScript().add(FabricExpansion(epoch=2, switch="t3-0")),
        r"events\[0\]\.switch",
    ),
    "burst-too-many-links": (
        ScenarioScript().burst(0, 1, level=LinkLevel.LEVEL2, num_links=17),
        r"events\[0\]\.num_links",
    ),
    "linecard-too-many-links": (
        ScenarioScript().linecard(0, 1, num_links=6, switch="pod0-t1-0"),
        r"events\[0\]\.num_links",
    ),
}


class TestResolve:
    def test_resolve_is_what_compile_schedules(self, small_topology, link_table):
        script = (
            ScenarioScript()
            .flap(start=0, duration=2, level=LinkLevel.LEVEL2)
            .reboot_switch(epoch=1, tier=SwitchTier.T2, outage_epochs=2)
            .linecard(start=1, duration=1, num_links=2, drop_rate=0.1, blackhole=False)
            .add(TrafficShift(epoch=2, traffic="skewed"))
        )
        resolved = script.resolve(small_topology, rng=5)
        compiled = script.compile(small_topology, link_table, rng=5)
        assert resolved.failures == compiled.schedule.failures
        [(due, [switch])] = resolved.reseeds.items()
        assert due == 3 and small_topology.switch(switch).tier == SwitchTier.T2
        assert resolved.shifts == {2: script.events[3]}
        gray = [f for f in resolved.failures if not f.blackhole]
        assert {f.drop_rate for f in gray} == {0.01, 0.1}
        # the link table is untouched until an epoch is applied
        assert not any(link_table.is_failed(f.link) for f in resolved.failures)

    @pytest.mark.parametrize("name", sorted(UNHOLDABLE_SCRIPTS))
    def test_a_script_the_fabric_cannot_hold_is_refused_by_both_sides(
        self, name, small_params, small_topology, link_table
    ):
        script, field = UNHOLDABLE_SCRIPTS[name]
        with pytest.raises(ValueError, match=field):
            script.resolve(small_topology, rng=0)
        with pytest.raises(ValueError, match=field):
            script.compile(small_topology, link_table, rng=0)
        with pytest.raises(ValueError, match=field):
            EvidenceLoadGenerator(small_params, script=script, events_per_epoch=0)


class TestCompile:
    def test_explicit_link_is_respected(self, small_topology, link_table):
        link = DirectedLink("pod0-tor0", "pod0-t1-0")
        script = ScenarioScript().flap(start=0, duration=1, link=link)
        compiled = script.compile(small_topology, link_table, rng=0)
        assert [f.link for f in compiled.schedule.failures] == [link]

    def test_random_flap_victim_matches_level(self, small_topology, link_table):
        script = ScenarioScript().flap(start=0, duration=1, level=LinkLevel.LEVEL2)
        compiled = script.compile(small_topology, link_table, rng=3)
        (failure,) = compiled.schedule.failures
        assert small_topology.link_level(failure.link) == LinkLevel.LEVEL2

    def test_compile_is_deterministic_in_the_seed(self, small_topology):
        script = ScenarioScript().flap(start=0, duration=1, level=LinkLevel.LEVEL1)
        tables = [LinkStateTable(small_topology, rng=0) for _ in range(2)]
        compiled = [script.compile(small_topology, table, rng=42) for table in tables]
        assert (
            compiled[0].schedule.failures[0].link
            == compiled[1].schedule.failures[0].link
        )

    def test_burst_resolves_distinct_links_of_level(self, small_topology, link_table):
        script = ScenarioScript().burst(
            start=0, duration=1, level=LinkLevel.LEVEL1, num_links=4
        )
        compiled = script.compile(small_topology, link_table, rng=1)
        links = [f.link for f in compiled.schedule.failures]
        assert len(links) == 4
        assert len(set(links)) == 4
        assert all(
            small_topology.link_level(link) == LinkLevel.LEVEL1 for link in links
        )

    def test_burst_too_many_links_raises(self, small_topology, link_table):
        script = ScenarioScript().burst(
            start=0, duration=1, level=LinkLevel.LEVEL2, num_links=10_000
        )
        with pytest.raises(ValueError):
            script.compile(small_topology, link_table, rng=0)

    def test_drain_blackholes_both_directions(self, small_topology, link_table):
        physical = small_topology.links_of_level(LinkLevel.LEVEL1)[0]
        script = ScenarioScript().drain(start=1, duration=2, link=physical)
        compiled = script.compile(small_topology, link_table, rng=0)

        compiled.apply_epoch(0)
        assert not link_table.is_down(physical)
        compiled.apply_epoch(1)
        assert link_table.is_down(physical)
        for direction in physical.directions():
            assert link_table.drop_probability(direction) == 1.0
        compiled.apply_epoch(3)
        assert not link_table.is_down(physical)
        for direction in physical.directions():
            assert link_table.drop_probability(direction) < 1.0

    def test_reboot_blackholes_adjacent_links_then_reseeds(self, small_topology):
        link_table = LinkStateTable(small_topology, rng=0)
        router = EcmpRouter(small_topology, rng=0)
        switch = small_topology.switches_of_tier(SwitchTier.T1)[0].name
        script = ScenarioScript().reboot_switch(epoch=1, switch=switch, outage_epochs=2)
        # compile with a seed distinct from the router's: with the same seed
        # the reseed would redraw the very first sample the router's seeds
        # came from (the pipeline forks distinct streams for exactly this
        # reason).
        compiled = script.compile(small_topology, link_table, router=router, rng=99)

        routes_before = cross_pod_routes(router, small_topology)
        adjacent = small_topology.links_of_node(switch)

        truth = compiled.apply_epoch(1)
        # still down, not yet reseeded
        assert cross_pod_routes(router, small_topology) == routes_before
        expected = {d for link in adjacent for d in link.directions()}
        assert set(truth.bad_links) == expected
        assert all(rate == 1.0 for rate in truth.drop_rates.values())

        truth = compiled.apply_epoch(3)  # back up, reseeded
        assert truth.bad_links == []
        assert cross_pod_routes(router, small_topology) != routes_before
        assert all(not link_table.is_down(link) for link in adjacent)

    def test_random_switch_matches_tier(self, small_topology, link_table):
        script = ScenarioScript().reboot_switch(epoch=0, tier=SwitchTier.T2)
        compiled = script.compile(small_topology, link_table, rng=5)
        truth = compiled.apply_epoch(0)
        names = {link.src for link in truth.bad_links} & {
            s.name for s in small_topology.switches_of_tier(SwitchTier.T2)
        }
        assert len(names) == 1

    def test_horizon_covers_reseed_epoch(self, small_topology, link_table):
        script = ScenarioScript().reboot_switch(epoch=2, outage_epochs=2)
        compiled = script.compile(small_topology, link_table, rng=0)
        # outage spans [2, 4), the reseed fires during epoch 4 -> horizon 5
        assert compiled.horizon == 5
        assert script.horizon == 5

    def test_reseed_catches_up_over_epoch_gaps(self, small_topology):
        link_table = LinkStateTable(small_topology, rng=0)
        router = EcmpRouter(small_topology, rng=0)
        switch = small_topology.switches_of_tier(SwitchTier.T1)[0].name
        script = ScenarioScript().reboot_switch(epoch=1, switch=switch, outage_epochs=1)
        compiled = script.compile(small_topology, link_table, router=router, rng=99)
        routes_before = cross_pod_routes(router, small_topology)
        compiled.apply_epoch(1)
        compiled.apply_epoch(5)  # epoch 2 (the due reseed) was never applied
        routes_after = cross_pod_routes(router, small_topology)
        assert routes_after != routes_before
        compiled.apply_epoch(6)  # the reseed fires exactly once
        assert cross_pod_routes(router, small_topology) == routes_after


class TestLinecardFailure:
    def test_strikes_the_requested_number_of_links_on_one_switch(
        self, small_topology, link_table
    ):
        switch = small_topology.switches_of_tier(SwitchTier.T1)[0].name
        script = ScenarioScript().linecard(
            start=1, duration=2, num_links=3, switch=switch
        )
        compiled = script.compile(small_topology, link_table, rng=0)

        assert compiled.apply_epoch(0).bad_links == []
        truth = compiled.apply_epoch(1)
        victims = {link.undirected() for link in truth.bad_links}
        assert len(victims) == 3
        assert len(truth.bad_links) == 6  # both directions of each victim
        adjacent = set(small_topology.links_of_node(switch))
        assert victims <= adjacent
        assert compiled.apply_epoch(3).bad_links == []

    def test_gray_mode_applies_the_drop_rate_without_downing_links(
        self, small_topology
    ):
        link_table = LinkStateTable(small_topology, rng=0)
        switch = small_topology.switches_of_tier(SwitchTier.T1)[0].name
        script = ScenarioScript().linecard(
            start=0, duration=1, num_links=2, drop_rate=0.05,
            blackhole=False, switch=switch,
        )
        compiled = script.compile(small_topology, link_table, rng=0)
        truth = compiled.apply_epoch(0)
        assert truth.bad_links
        for link in truth.bad_links:
            assert truth.drop_rates[link] == 0.05
            assert not link_table.is_down(link.undirected())

    def test_random_switch_matches_tier_and_is_seed_deterministic(
        self, small_topology
    ):
        script = ScenarioScript().linecard(start=0, duration=1, tier=SwitchTier.T2)
        names = set()
        for _ in range(2):
            table = LinkStateTable(small_topology, rng=0)
            truth = script.compile(small_topology, table, rng=7).apply_epoch(0)
            tier2 = {s.name for s in small_topology.switches_of_tier(SwitchTier.T2)}
            touched = {link.src for link in truth.bad_links} & tier2
            assert len(touched) == 1
            names |= touched
        assert len(names) == 1  # same rng seed -> same victim switch

    def test_too_many_links_raises(self, small_topology, link_table):
        switch = small_topology.switches_of_tier(SwitchTier.T2)[0].name
        degree = len(small_topology.links_of_node(switch))
        script = ScenarioScript().linecard(
            start=0, duration=1, num_links=degree + 1, switch=switch
        )
        with pytest.raises(ValueError):
            script.compile(small_topology, link_table, rng=0)


class TestFabricExpansion:
    def test_links_dark_before_cutover_healthy_after(self, small_topology):
        link_table = LinkStateTable(small_topology, rng=0)
        switch = small_topology.switches_of_tier(SwitchTier.T2)[0].name
        script = ScenarioScript().add(FabricExpansion(epoch=2, switch=switch))
        compiled = script.compile(small_topology, link_table, rng=0)

        expected = {
            d
            for link in small_topology.links_of_node(switch)
            for d in link.directions()
        }
        for epoch in (0, 1):
            truth = compiled.apply_epoch(epoch)
            assert set(truth.bad_links) == expected
            assert all(rate == 1.0 for rate in truth.drop_rates.values())
        truth = compiled.apply_epoch(2)
        assert truth.bad_links == []
        assert all(
            not link_table.is_down(link)
            for link in small_topology.links_of_node(switch)
        )

    def test_expansion_at_epoch_zero_has_no_dark_window(
        self, small_topology, link_table
    ):
        switch = small_topology.switches_of_tier(SwitchTier.T2)[0].name
        script = ScenarioScript().add(FabricExpansion(epoch=0, switch=switch))
        compiled = script.compile(small_topology, link_table, rng=0)
        assert compiled.apply_epoch(0).bad_links == []

    def test_horizon_includes_the_cutover_epoch(self, small_topology, link_table):
        script = ScenarioScript().add(FabricExpansion(epoch=3))
        assert script.horizon == 4
        compiled = script.compile(small_topology, link_table, rng=0)
        # the dark window is [0, 3); the cutover epoch itself must still be
        # simulated for the links' return to health to be observable.
        assert compiled.horizon == script.horizon == 4


class TestTrafficShift:
    def test_shift_builds_generator_of_kind(self, small_topology, link_table):
        script = ScenarioScript().add(
            TrafficShift(epoch=2, traffic="skewed", num_hot_tors=2, hot_fraction=0.9)
        )
        compiled = script.compile(small_topology, link_table, rng=0)
        assert compiled.traffic_for_epoch(0) is None
        shifted = compiled.traffic_for_epoch(2)
        assert isinstance(shifted, SkewedTraffic)

    def test_unset_parameters_inherit_from_current_generator(
        self, small_topology, link_table
    ):
        current = UniformTraffic(
            small_topology, connections_per_host=17, packets_per_flow=(10, 20)
        )
        script = ScenarioScript().add(TrafficShift(epoch=1, traffic="hot_tor"))
        compiled = script.compile(small_topology, link_table, rng=0)
        shifted = compiled.traffic_for_epoch(1, current=current)
        assert isinstance(shifted, HotTorTraffic)
        assert shifted.connections_per_host == 17
        assert shifted.packets_per_flow == (10, 20)

    def test_unknown_kind_raises(self, small_topology, link_table):
        script = ScenarioScript().add(TrafficShift(epoch=0, traffic="mystery"))
        compiled = script.compile(small_topology, link_table, rng=0)
        with pytest.raises(ValueError):
            compiled.traffic_for_epoch(0)

    def test_shift_applies_when_epochs_start_late(self, small_topology, link_table):
        script = ScenarioScript().add(TrafficShift(epoch=0, traffic="skewed"))
        compiled = script.compile(small_topology, link_table, rng=0)
        shifted = compiled.traffic_for_epoch(3)  # first epoch driven is 3
        assert isinstance(shifted, SkewedTraffic)
        assert compiled.traffic_for_epoch(4) is None  # fires only once


class TestTransientScheduleExtensions:
    def test_active_at_and_horizon(self, small_topology, link_table):
        schedule = TransientFailureSchedule(link_table)
        link = DirectedLink("pod0-tor0", "pod0-t1-0")
        flap = TransientFailure(link=link, drop_rate=0.1, start_epoch=2, duration_epochs=3)
        schedule.add(flap)
        assert schedule.horizon == 5
        assert schedule.active_at(1) == []
        assert schedule.active_at(2) == [flap]
        assert schedule.active_at(4) == [flap]
        assert schedule.active_at(5) == []

    def test_blackhole_failure_takes_link_down_and_restores(
        self, small_topology, link_table
    ):
        schedule = TransientFailureSchedule(link_table)
        link = DirectedLink("pod0-tor0", "pod0-t1-0")
        schedule.add(
            TransientFailure(
                link=link, drop_rate=1.0, start_epoch=0, duration_epochs=1, blackhole=True
            )
        )
        schedule.apply_epoch(0)
        assert link_table.is_down(link)
        schedule.apply_epoch(1)
        assert not link_table.is_down(link)
        assert link_table.drop_probability(link) < 1.0
