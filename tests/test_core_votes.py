"""Unit tests for the voting scheme (VoteTally)."""

from __future__ import annotations

import pytest

from repro.core.votes import VOTE_UNITS, VoteTally
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink


def _links(*pairs):
    return [DirectedLink(a, b) for a, b in pairs]


def _discovered(flow_id, links, retransmissions=1):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("src", "dst", 1000 + flow_id, 443),
        src_host="src",
        dst_host="dst",
        links=links,
        complete=True,
        retransmissions=retransmissions,
    )


class TestVoteValues:
    def test_inverse_hops_weight(self):
        tally = VoteTally()
        links = _links(("h", "tor"), ("tor", "t1"), ("t1", "tor2"), ("tor2", "h2"))
        contribution = tally.add_flow(1, links)
        assert contribution.units == VOTE_UNITS // 4
        for link in links:
            assert tally.votes_of(link) == pytest.approx(0.25)
        assert tally.total_votes() == pytest.approx(1.0)

    def test_unit_policy(self):
        tally = VoteTally(policy="unit")
        links = _links(("a", "b"), ("b", "c"))
        tally.add_flow(1, links)
        assert tally.votes_of(links[0]) == 1.0
        assert tally.total_votes() == 2.0

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            VoteTally(policy="bogus")

    def test_empty_link_list_raises(self):
        with pytest.raises(ValueError):
            VoteTally().add_flow(1, [])

    def test_votes_accumulate_across_flows(self):
        tally = VoteTally()
        shared = DirectedLink("tor", "t1")
        tally.add_flow(1, [shared, DirectedLink("t1", "x")])
        tally.add_flow(2, [shared, DirectedLink("t1", "y")])
        assert tally.votes_of(shared) == pytest.approx(1.0)

    def test_votes_of_unvoted_link_is_zero(self):
        assert VoteTally().votes_of(DirectedLink("a", "b")) == 0.0


class TestDiscoveredPathIngestion:
    def test_add_discovered_path(self):
        tally = VoteTally()
        path = _discovered(7, _links(("a", "b"), ("b", "c")), retransmissions=3)
        contribution = tally.add_discovered_path(path)
        assert contribution.flow_id == 7
        assert contribution.retransmissions == 3
        assert contribution.hop_count == 2

    def test_add_many(self):
        tally = VoteTally()
        paths = [_discovered(i, _links(("a", "b"))) for i in range(5)]
        tally.add_discovered_paths(paths)
        assert tally.num_flows == 5
        assert tally.votes_of(DirectedLink("a", "b")) == pytest.approx(5.0)


class TestQueries:
    def test_items_sorted_by_votes(self):
        tally = VoteTally()
        tally.add_flow(1, _links(("a", "b")))
        tally.add_flow(2, _links(("a", "b")))
        tally.add_flow(3, _links(("c", "d"), ("d", "e")))
        items = tally.items()
        assert items[0][0] == DirectedLink("a", "b")
        assert items[0][1] >= items[1][1] >= items[2][1]

    def test_top_and_max(self):
        tally = VoteTally()
        tally.add_flow(1, _links(("a", "b")))
        tally.add_flow(2, _links(("c", "d"), ("d", "e")))
        assert tally.max_link() == DirectedLink("a", "b")
        assert len(tally.top(2)) == 2

    def test_empty_tally(self):
        tally = VoteTally()
        assert tally.max_link() is None
        assert tally.items() == []
        assert tally.total_votes() == 0.0

    def test_copy_is_independent(self):
        tally = VoteTally()
        tally.add_flow(1, _links(("a", "b")))
        clone = tally.copy()
        clone.add_flow(2, _links(("a", "b")))
        assert tally.votes_of(DirectedLink("a", "b")) == pytest.approx(1.0)
        assert clone.votes_of(DirectedLink("a", "b")) == pytest.approx(2.0)
        assert clone.policy == tally.policy

    def test_contributions_preserved(self):
        tally = VoteTally()
        tally.add_flow(1, _links(("a", "b")))
        tally.add_flow(2, _links(("c", "d")))
        assert [c.flow_id for c in tally.contributions] == [1, 2]
