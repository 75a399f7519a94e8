"""Unit tests for Algorithm 1 (find_problematic_links)."""

from __future__ import annotations

import pytest

from repro.core.blame import BlameConfig, find_problematic_links
from repro.core.votes import VoteTally
from repro.topology.elements import DirectedLink

BAD1 = DirectedLink("t1-0", "tor0")
BAD2 = DirectedLink("t1-1", "tor5")


def _path_through(bad, index):
    """A 4-link path containing ``bad``, unique per index."""
    return [
        DirectedLink(f"h{index}", f"tor-src{index % 3}"),
        DirectedLink(f"tor-src{index % 3}", bad.src),
        bad,
        DirectedLink(bad.dst, f"h-dst{index % 2}"),
    ]


class TestBlameConfig:
    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            BlameConfig(threshold_fraction=0.0)
        with pytest.raises(ValueError):
            BlameConfig(threshold_fraction=1.0)

    def test_invalid_adjustment(self):
        with pytest.raises(ValueError):
            BlameConfig(adjustment="magic")

    def test_invalid_max_links(self):
        with pytest.raises(ValueError):
            BlameConfig(max_links=0)


class TestSingleFailure:
    def test_detects_dominant_link(self):
        tally = VoteTally()
        for i in range(20):
            tally.add_flow(i, _path_through(BAD1, i))
        result = find_problematic_links(tally)
        assert result.detected_links[0] == BAD1
        assert BAD1 in result

    def test_empty_tally_detects_nothing(self):
        result = find_problematic_links(VoteTally())
        assert result.detected_links == []

    def test_threshold_votes_recorded(self):
        tally = VoteTally()
        for i in range(10):
            tally.add_flow(i, _path_through(BAD1, i))
        result = find_problematic_links(tally, BlameConfig(threshold_fraction=0.05))
        assert result.threshold_votes == pytest.approx(0.05 * tally.total_votes())

    def test_input_tally_not_modified(self):
        tally = VoteTally()
        for i in range(10):
            tally.add_flow(i, _path_through(BAD1, i))
        before = tally.as_dict()
        find_problematic_links(tally)
        assert tally.as_dict() == before


class TestMultipleFailures:
    def _two_failure_tally(self, flows_each=15):
        tally = VoteTally()
        flow_id = 0
        for bad in (BAD1, BAD2):
            for _ in range(flows_each):
                tally.add_flow(flow_id, _path_through(bad, flow_id))
                flow_id += 1
        return tally

    def test_detects_both_links(self):
        result = find_problematic_links(self._two_failure_tally())
        assert BAD1 in result.detected_links
        assert BAD2 in result.detected_links

    def test_detection_order_follows_votes(self):
        tally = VoteTally()
        flow_id = 0
        for _ in range(30):
            tally.add_flow(flow_id, _path_through(BAD1, flow_id))
            flow_id += 1
        for _ in range(10):
            tally.add_flow(flow_id, _path_through(BAD2, flow_id))
            flow_id += 1
        result = find_problematic_links(tally)
        assert result.detected_links.index(BAD1) < result.detected_links.index(BAD2)

    def test_adjustment_reduces_false_positives(self):
        tally = self._two_failure_tally()
        with_adjustment = find_problematic_links(tally, BlameConfig(adjustment="paths"))
        without = find_problematic_links(tally, BlameConfig(adjustment="none"))
        false_with = set(with_adjustment.detected_links) - {BAD1, BAD2}
        false_without = set(without.detected_links) - {BAD1, BAD2}
        assert len(false_with) <= len(false_without)
        # Both must still find the genuinely bad links.
        assert {BAD1, BAD2} <= set(with_adjustment.detected_links)
        assert {BAD1, BAD2} <= set(without.detected_links)

    def test_max_links_cap(self):
        result = find_problematic_links(
            self._two_failure_tally(), BlameConfig(max_links=1)
        )
        assert len(result.detected_links) == 1

    def test_higher_threshold_detects_fewer(self):
        tally = self._two_failure_tally()
        low = find_problematic_links(tally, BlameConfig(threshold_fraction=0.005))
        high = find_problematic_links(tally, BlameConfig(threshold_fraction=0.4))
        assert len(high.detected_links) <= len(low.detected_links)

    def test_votes_at_detection_monotone(self):
        result = find_problematic_links(self._two_failure_tally())
        votes = [result.votes_at_detection[l] for l in result.detected_links]
        # The adjustment can only lower later candidates, so the recorded
        # detection votes are non-increasing.
        assert all(a >= b - 1e-9 for a, b in zip(votes, votes[1:]))
