"""Unit tests for topology primitives (links, switches, hosts, LAGs)."""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from repro.api.events import link_from_str, link_to_str
from repro.topology.elements import (
    DirectedLink,
    Host,
    Link,
    LinkAggregationGroup,
    LinkLevel,
    NodeKind,
    Switch,
    SwitchTier,
)


class TestDirectedLink:
    """A named tuple: its hash, equality and order are ``tuple``'s, in C."""

    def test_reversed(self):
        link = DirectedLink("a", "b")
        assert link.reversed() == DirectedLink("b", "a")
        assert link.reversed().reversed() == link

    def test_undirected_is_canonical(self):
        assert DirectedLink("b", "a").undirected() == Link("a", "b")
        assert DirectedLink("a", "b").undirected() == Link("a", "b")

    def test_ordering_is_total(self):
        links = [DirectedLink("b", "a"), DirectedLink("a", "b"), DirectedLink("a", "a")]
        assert sorted(links) == sorted(links, key=lambda l: (l.src, l.dst))
        assert all(hash(l) == hash((l.src, l.dst)) for l in links)

    def test_str(self):
        link = DirectedLink("x", dst="y")
        assert str(link) == "x->y" and link_from_str(link_to_str(link)) == link
        assert link == DirectedLink(src="x", dst="y") and (link.src, link.dst) == ("x", "y")
        with pytest.raises(AttributeError):
            link.src = "c"
        for twin in (pickle.loads(pickle.dumps(link)), copy.deepcopy(link)):
            assert type(twin) is DirectedLink and twin == link

    def test_what_being_a_tuple_changed(self):
        """New with the named tuple (the dataclass said ``False`` and raised)."""
        assert DirectedLink("a", "b") == ("a", "b") != Link("a", "b")
        assert json.dumps(DirectedLink("a", "b")) == '["a", "b"]'


class TestLink:
    def test_of_sorts_endpoints(self):
        assert Link.of("z", "a") == Link("a", "z")

    def test_directions(self):
        forward, backward = Link("a", "b").directions()
        assert forward == DirectedLink("a", "b")
        assert backward == DirectedLink("b", "a")

    def test_hashable_and_equal(self):
        assert len({Link.of("a", "b"), Link.of("b", "a")}) == 1


class TestSwitchAndHost:
    def test_switch_kind(self):
        switch = Switch(name="t2-0", tier=SwitchTier.T2, index=0)
        assert switch.kind == NodeKind.SWITCH
        assert switch.pod is None

    def test_host_kind(self):
        host = Host(name="h", tor="tor0", pod=0, index=1)
        assert host.kind == NodeKind.HOST

    def test_switch_tier_ordering(self):
        assert SwitchTier.TOR < SwitchTier.T1 < SwitchTier.T2 < SwitchTier.T3

    def test_link_level_values(self):
        assert LinkLevel.HOST == 0
        assert LinkLevel.LEVEL1 == 1
        assert LinkLevel.LEVEL2 == 2


class TestLinkAggregationGroup:
    def test_not_down_until_all_members_fail(self):
        lag = LinkAggregationGroup(link=Link.of("a", "b"), members=["m1", "m2"])
        assert not lag.is_down
        lag.fail_member("m1")
        assert not lag.is_down
        lag.fail_member("m2")
        assert lag.is_down

    def test_restore_member(self):
        lag = LinkAggregationGroup(link=Link.of("a", "b"), members=["m1"])
        lag.fail_member("m1")
        assert lag.is_down
        lag.restore_member("m1")
        assert not lag.is_down

    def test_unknown_member_raises(self):
        lag = LinkAggregationGroup(link=Link.of("a", "b"), members=["m1"])
        with pytest.raises(ValueError):
            lag.fail_member("m99")

    def test_empty_lag_is_never_down(self):
        lag = LinkAggregationGroup(link=Link.of("a", "b"))
        assert not lag.is_down
