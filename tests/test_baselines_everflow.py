"""Unit tests for the Everflow-like ground-truth capture."""

from __future__ import annotations

import pytest

from repro.baselines.everflow import EverflowCapture
from repro.netsim.flows import FlowRecord
from repro.netsim.tcp import TransferResult
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path


def _flow(flow_id, src="h1", dst="h2", drops=0):
    path = Path.from_nodes([src, "tor1", "t1", "tor2", dst])
    drops_by_link = {path.links[1]: drops} if drops else {}
    result = TransferResult(
        num_packets=10,
        packets_delivered=10 - min(drops, 10),
        packets_lost=0,
        retransmissions=drops,
        drops_by_link=drops_by_link,
    )
    return FlowRecord(
        flow_id=flow_id,
        epoch=0,
        five_tuple=FiveTuple(src, dst, 1000 + flow_id, 443),
        src_host=src,
        dst_host=dst,
        path=path,
        result=result,
    )


class TestEverflowCapture:
    def test_captures_only_enabled_hosts(self):
        capture = EverflowCapture(enabled_hosts=["h1"])
        capture.capture_epoch([_flow(1, src="h1"), _flow(2, src="h9")])
        assert capture.is_captured(1)
        assert not capture.is_captured(2)

    def test_capture_everything_when_unrestricted(self):
        capture = EverflowCapture()
        capture.capture_epoch([_flow(1), _flow(2, src="h9")])
        assert capture.is_captured(1) and capture.is_captured(2)

    def test_drop_link_reported(self):
        capture = EverflowCapture()
        flow = _flow(1, drops=3)
        capture.capture_epoch([flow])
        assert capture.drop_link_of(1) == flow.path.links[1]
        assert capture.flows_with_drops() == [1]

    def test_no_drop_returns_none(self):
        capture = EverflowCapture()
        capture.capture_epoch([_flow(1, drops=0)])
        assert capture.drop_link_of(1) is None
        assert capture.flows_with_drops() == []

    def test_path_of_captured_flow(self):
        capture = EverflowCapture()
        flow = _flow(1)
        capture.capture_epoch([flow])
        assert capture.path_of(1) == flow.path
        assert capture.path_of(42) is None
