"""Unit tests for the link-state (drop probability) table."""

from __future__ import annotations

import pytest

from repro.netsim.links import LinkStateTable
from repro.topology.elements import DirectedLink, Link, LinkLevel


class TestNoiseInitialisation:
    def test_every_directed_link_has_probability(self, small_topology, link_table):
        assert len(link_table) == small_topology.num_links(directed=True)
        for link in small_topology.directed_links():
            assert 0.0 <= link_table.drop_probability(link) <= 1e-6

    def test_custom_noise_range(self, small_topology):
        table = LinkStateTable(small_topology, noise_low=1e-5, noise_high=1e-4, rng=0)
        probs = [table.drop_probability(l) for l in small_topology.directed_links()]
        assert min(probs) >= 1e-5 and max(probs) <= 1e-4

    def test_invalid_noise_range_raises(self, small_topology):
        with pytest.raises(ValueError):
            LinkStateTable(small_topology, noise_low=0.5, noise_high=0.1)

    def test_no_failures_initially(self, small_topology, link_table):
        assert link_table.failed_links == set()
        assert not any(link_table.is_down(link) for link in small_topology.links)


class TestFailureInjection:
    def test_inject_directed_failure(self, small_topology, link_table):
        link = small_topology.directed_links()[0]
        affected = link_table.inject_failure(link, 0.01)
        assert affected == [link]
        assert link_table.drop_probability(link) == 0.01
        assert link_table.is_failed(link)
        assert not link_table.is_failed(link.reversed())

    def test_inject_symmetric_failure(self, small_topology, link_table):
        link = small_topology.directed_links()[0]
        affected = link_table.inject_failure(link, 0.02, symmetric=True)
        assert set(affected) == {link, link.reversed()}
        assert link_table.is_failed(link.reversed())

    def test_inject_physical_failure(self, small_topology, link_table):
        physical = small_topology.links[0]
        affected = link_table.inject_failure(physical, 0.05)
        assert set(affected) == set(physical.directions())

    def test_invalid_rate_raises(self, small_topology, link_table):
        with pytest.raises(ValueError):
            link_table.inject_failure(small_topology.directed_links()[0], 1.5)

    def test_unknown_link_raises(self, link_table):
        with pytest.raises(KeyError):
            link_table.inject_failure(DirectedLink("ghost", "phantom"), 0.1)

    def test_clear_failure_restores_noise(self, small_topology, link_table):
        link = small_topology.directed_links()[0]
        link_table.inject_failure(link, 0.5)
        link_table.clear_failure(link)
        assert not link_table.is_failed(link)
        assert link_table.drop_probability(link) <= 1e-6


class TestBlackholes:
    def test_set_link_down(self, small_topology, link_table):
        physical = small_topology.links[0]
        link_table.set_link_down(physical)
        assert link_table.is_down(physical)
        for direction in physical.directions():
            assert link_table.drop_probability(direction) == 1.0
            assert link_table.is_failed(direction)

    def test_is_down_accepts_directed(self, small_topology, link_table):
        physical = small_topology.links[0]
        link_table.set_link_down(physical)
        assert link_table.is_down(physical.directions()[0])

    def test_clear_failure_clears_down(self, small_topology, link_table):
        physical = small_topology.links[0]
        link_table.set_link_down(physical)
        link_table.clear_failure(physical)
        assert not link_table.is_down(physical)


class TestReset:
    def test_reset_noise_clears_failures(self, small_topology, link_table):
        link = small_topology.directed_links()[0]
        link_table.inject_failure(link, 0.3)
        link_table.reset_noise(rng=1)
        assert link_table.failed_links == set()
        assert link_table.drop_probability(link) <= 1e-6
