"""Unit tests for the Path abstraction."""

from __future__ import annotations

import pytest

from repro.routing.paths import Path
from repro.topology.elements import DirectedLink


class TestPathConstruction:
    def test_from_nodes(self):
        path = Path.from_nodes(["a", "b", "c"])
        assert path.hop_count == 2
        assert path.src == "a" and path.dst == "c"
        assert path.nodes() == ["a", "b", "c"]

    def test_empty_path_raises(self):
        with pytest.raises(ValueError):
            Path(())

    def test_single_node_raises(self):
        with pytest.raises(ValueError):
            Path.from_nodes(["a"])

    def test_non_contiguous_links_raise(self):
        with pytest.raises(ValueError):
            Path((DirectedLink("a", "b"), DirectedLink("c", "d")))


class TestPathQueries:
    @pytest.fixture()
    def path(self):
        return Path.from_nodes(["h1", "tor1", "t1", "tor2", "h2"])

    def test_hop_count_and_len(self, path):
        assert path.hop_count == 4
        assert len(path) == 4

    def test_prefix(self, path):
        prefix = path.prefix(2)
        assert prefix.hop_count == 2
        assert prefix.dst == "t1"

    def test_prefix_zero_raises(self, path):
        with pytest.raises(ValueError):
            path.prefix(0)

    def test_iteration_order(self, path):
        assert list(path)[0] == DirectedLink("h1", "tor1")
        assert list(path)[-1] == DirectedLink("tor2", "h2")

    def test_str_contains_all_nodes(self, path):
        text = str(path)
        for node in path.nodes():
            assert node in text
