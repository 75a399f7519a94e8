"""Unit tests for ``build_routing_matrix`` and the routing matrix it returns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.paths import Path
from repro.routing.routing_matrix import build_routing_matrix
from repro.topology.elements import DirectedLink


class TestRoutingMatrix:
    @pytest.fixture()
    def paths(self):
        return [
            Path.from_nodes(["h1", "tor1", "t1", "tor2", "h2"]),
            Path.from_nodes(["h3", "tor1", "t1", "tor2", "h4"]),
            Path.from_nodes(["h1", "tor1", "t2", "tor2", "h2"]),
        ]

    def test_shape(self, paths):
        routing = build_routing_matrix(paths)
        assert routing.num_flows == 3
        assert routing.matrix.shape == (3, routing.num_links)

    def test_entries_reflect_membership(self, paths):
        routing = build_routing_matrix(paths)
        col = routing.column_of(DirectedLink("tor1", "t1"))
        assert list(routing.matrix[:, col]) == [1, 1, 0]

    def test_accepts_plain_link_sequences(self):
        links = [DirectedLink("a", "b"), DirectedLink("x", "y")]
        routing = build_routing_matrix([links])
        assert routing.num_flows == 1
        assert routing.matrix.sum() == 2

    def test_custom_flow_ids(self, paths):
        routing = build_routing_matrix(paths, flow_ids=["a", "b", "c"])
        assert routing.flow_ids == ["a", "b", "c"]

    def test_flow_id_length_mismatch_raises(self, paths):
        with pytest.raises(ValueError):
            build_routing_matrix(paths, flow_ids=[1])

    def test_fixed_column_order(self, paths):
        fixed = [DirectedLink("tor1", "t1"), DirectedLink("t1", "tor2")]
        routing = build_routing_matrix(paths, links=fixed)
        assert routing.links == fixed
        assert routing.num_links == 2

    def test_rows_have_hop_count_ones(self, paths):
        routing = build_routing_matrix(paths)
        assert list(routing.matrix.sum(axis=1)) == [p.hop_count for p in paths]
