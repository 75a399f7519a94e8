"""Unit tests for the analysis agent and EpochReport."""

from __future__ import annotations

import pytest

from repro.core.analysis import AnalysisAgent
from repro.core.blame import BlameConfig
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink

BAD = DirectedLink("t1-0", "tor0")


def _path(flow_id, links, retransmissions=1):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("h1", "h2", 1000 + flow_id, 443),
        src_host="h1",
        dst_host="h2",
        links=links,
        complete=True,
        retransmissions=retransmissions,
    )


def _failure_paths(count=20):
    paths = []
    for i in range(count):
        links = [
            DirectedLink(f"h{i}", f"tor{i % 4}"),
            DirectedLink(f"tor{i % 4}", BAD.src),
            BAD,
            DirectedLink(BAD.dst, f"hd{i % 3}"),
        ]
        paths.append(_path(i, links))
    return paths


class TestAnalyzeEpoch:
    def test_report_structure(self):
        agent = AnalysisAgent()
        report = agent.analyze_epoch(3, _failure_paths())
        assert report.epoch == 3
        assert report.num_paths_analyzed == 20
        assert report.ranked_links[0][0] == BAD
        assert BAD in report.detected_links
        assert report.tally.num_flows == 20

    def test_flow_causes_point_to_bad_link(self):
        agent = AnalysisAgent()
        report = agent.analyze_epoch(0, _failure_paths())
        assert all(cause == BAD for cause in report.flow_causes.values())
        assert report.cause_of_flow(0) == BAD
        assert report.cause_of_flow(9999) is None

    def test_noise_flows_not_attributed_by_default(self):
        # Enough failure-driven flows that a single lone drop elsewhere stays
        # below Algorithm 1's 1% vote threshold and is classified as noise.
        paths = _failure_paths(60)
        noise = _path(500, [DirectedLink("hx", "torx"), DirectedLink("torx", "hy")])
        agent = AnalysisAgent()
        report = agent.analyze_epoch(0, paths + [noise])
        assert 500 in report.noise.noise_flows
        assert 500 not in report.flow_causes

    def test_noise_flows_attributed_when_requested(self):
        paths = _failure_paths(60)
        noise = _path(500, [DirectedLink("hx", "torx"), DirectedLink("torx", "hy")])
        agent = AnalysisAgent(attribute_noise_flows=True)
        report = agent.analyze_epoch(0, paths + [noise])
        assert 500 in report.flow_causes

    def test_empty_epoch(self):
        agent = AnalysisAgent()
        report = agent.analyze_epoch(0, [])
        assert report.detected_links == []
        assert report.flow_causes == {}
        assert report.num_paths_analyzed == 0
        assert "0 flows" in report.summary()

    def test_custom_blame_config_used(self):
        agent = AnalysisAgent(blame_config=BlameConfig(threshold_fraction=0.9))
        report = agent.analyze_epoch(0, _failure_paths())
        # With a 90% threshold only the dominant link can qualify.
        assert len(report.detected_links) <= 1
        assert agent.blame_config.threshold_fraction == 0.9

    def test_unit_vote_policy(self):
        agent = AnalysisAgent(vote_policy="unit")
        report = agent.analyze_epoch(0, _failure_paths(5))
        assert report.tally.policy == "unit"
        assert report.tally.votes_of(BAD) == pytest.approx(5.0)

    def test_summary_mentions_top_link(self):
        agent = AnalysisAgent()
        report = agent.analyze_epoch(0, _failure_paths())
        assert str(BAD) in report.summary()

    def test_top_links_limit(self):
        agent = AnalysisAgent()
        report = agent.analyze_epoch(0, _failure_paths())
        assert len(report.top_links(3)) == 3
