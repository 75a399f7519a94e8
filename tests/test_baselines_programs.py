"""Unit tests for the binary and integer optimization programs."""

from __future__ import annotations

import pytest

from repro.baselines.binary_program import solve_binary_program
from repro.baselines.integer_program import solve_integer_program
from repro.routing.routing_matrix import build_routing_matrix
from repro.topology.elements import DirectedLink

A = DirectedLink("tor1", "t1")
B = DirectedLink("t1", "tor2")
C = DirectedLink("tor3", "t2")
D = DirectedLink("t2", "tor4")


class TestBinaryProgram:
    def test_exact_single_common_link(self):
        routing = build_routing_matrix([[A, B], [A, C], [A, D]])
        result = solve_binary_program(routing, exact=True)
        assert result.exact
        assert result.blamed_links == [A]
        assert result.objective == pytest.approx(1.0)

    def test_exact_two_disjoint_failures(self):
        routing = build_routing_matrix([[A, B], [C, D]])
        result = solve_binary_program(routing, exact=True)
        assert len(result.blamed_links) == 2

    def test_greedy_fallback(self):
        routing = build_routing_matrix([[A, B], [A, C]])
        result = solve_binary_program(routing, exact=False)
        assert not result.exact
        assert result.blamed_links == [A]

    def test_empty_instance(self):
        routing = build_routing_matrix([])
        result = solve_binary_program(routing)
        assert result.blamed_links == []
        assert result.exact

    def test_exact_never_blames_more_than_greedy(self):
        rows = [[A, B], [B, C], [C, D], [A, D], [A, C]]
        routing = build_routing_matrix(rows)
        exact = solve_binary_program(routing, exact=True)
        greedy = solve_binary_program(routing, exact=False)
        assert len(exact.blamed_links) <= len(greedy.blamed_links)

    def test_cover_constraint_satisfied(self):
        rows = [[A, B], [B, C], [C, D]]
        routing = build_routing_matrix(rows)
        result = solve_binary_program(routing, exact=True)
        blamed = set(result.blamed_links)
        for row in rows:
            assert blamed & set(row)


class TestIntegerProgram:
    def test_exact_assigns_all_drops_to_common_link(self):
        routing = build_routing_matrix([[A, B], [A, C], [A, D]])
        counts = [2, 3, 1]
        result = solve_integer_program(routing, counts, exact=True)
        assert result.exact
        assert result.blamed_links[0] == A
        assert sum(result.drop_counts.values()) == pytest.approx(sum(counts))

    def test_ranking_orders_by_drops(self):
        routing = build_routing_matrix([[A, B], [C, D]])
        result = solve_integer_program(routing, [10, 1], exact=True)
        counts = [result.drop_counts[link] for link in result.blamed_links]
        assert counts == sorted(counts, reverse=True)
        top_links = set(result.blamed_links)
        assert top_links & {A, B}
        assert top_links & {C, D}

    def test_greedy_fallback_explains_all_drops(self):
        routing = build_routing_matrix([[A, B], [A, C], [C, D]])
        counts = [4, 2, 3]
        result = solve_integer_program(routing, counts, exact=False)
        assert not result.exact
        assert sum(result.drop_counts.values()) >= max(counts)
        assert len(result.blamed_links) >= 1

    def test_count_length_mismatch_raises(self):
        routing = build_routing_matrix([[A, B]])
        with pytest.raises(ValueError):
            solve_integer_program(routing, [1, 2])

    def test_empty_instance(self):
        routing = build_routing_matrix([])
        result = solve_integer_program(routing, [])
        assert result.drop_counts == {}

    def test_uses_more_information_than_binary(self):
        # Two flows share link A but have very different retransmission counts;
        # the integer program must place the drop mass on links of the heavy flow.
        heavy = [A, B]
        light = [A, C]
        routing = build_routing_matrix([heavy, light])
        result = solve_integer_program(routing, [50, 1], exact=True)
        heavy_mass = sum(result.drop_counts.get(l, 0) for l in heavy)
        assert heavy_mass >= 50
