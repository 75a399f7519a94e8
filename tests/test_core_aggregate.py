"""Tests for multi-epoch aggregation (repro.core.aggregate)."""

from __future__ import annotations

import pytest

from repro.testing import health_records, pair_of_hosts
from repro.core.aggregate import MultiEpochAggregator
from repro.core.analysis import AnalysisAgent
from repro.discovery.agent import DiscoveredPath
from repro.routing.fivetuple import FiveTuple
from repro.topology.elements import DirectedLink


def _discovered(flow_id, links):
    return DiscoveredPath(
        flow_id=flow_id,
        five_tuple=FiveTuple("h1", "h2", 1000 + flow_id, 443),
        src_host="h1",
        dst_host="h2",
        links=links,
        complete=True,
    )


class TestMultiEpochAggregator:
    BAD = DirectedLink("t1-0", "tor0")

    def _report(self, epoch, flows=15):
        paths = []
        for i in range(flows):
            paths.append(
                _discovered(
                    epoch * 1000 + i,
                    [
                        DirectedLink(f"h{i}", f"tor{i % 3}"),
                        DirectedLink(f"tor{i % 3}", self.BAD.src),
                        self.BAD,
                        DirectedLink(self.BAD.dst, f"hd{i % 2}"),
                    ],
                )
            )
        return AnalysisAgent().analyze_epoch(epoch, paths)

    def test_recurrent_offender_tracked(self):
        aggregator = MultiEpochAggregator()
        for epoch in range(3):
            aggregator.ingest(self._report(epoch))
        assert aggregator.epochs_ingested == 3
        offenders = aggregator.recurrent_offenders(min_epochs_detected=2)
        assert offenders and offenders[0].link == self.BAD
        assert offenders[0].epochs_detected == 3
        assert offenders[0].last_detected_epoch == 2

    def test_detections_per_epoch_stats(self):
        aggregator = MultiEpochAggregator()
        for epoch in range(2):
            aggregator.ingest(self._report(epoch))
        mean, std = aggregator.detections_per_epoch()
        assert mean >= 1.0
        assert std >= 0.0
        assert health_records(aggregator)[self.BAD].max_votes > 0

    def test_level_breakdown_requires_topology(self):
        aggregator = MultiEpochAggregator()
        aggregator.ingest(self._report(0))
        with pytest.raises(ValueError):
            aggregator.detection_breakdown_by_level()

    def test_level_breakdown_with_topology(self, small_topology, router):
        # Build reports from real topology paths so the level lookup works.
        src, dst = pair_of_hosts(small_topology)
        aggregator = MultiEpochAggregator(topology=small_topology)
        paths = []
        for port in range(1000, 1040):
            flow = FiveTuple(src, dst, port, 443)
            path = router.route(flow, src, dst)
            paths.append(_discovered(port, list(path.links)))
        report = AnalysisAgent().analyze_epoch(0, paths)
        aggregator.ingest(report)
        if report.detected_links:
            breakdown = aggregator.detection_breakdown_by_level()
            assert sum(breakdown.values()) == pytest.approx(1.0)
