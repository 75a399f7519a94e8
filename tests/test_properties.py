"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.setcover import greedy_max_coverage
from repro.core.blame import BlameConfig, find_problematic_links
from repro.core.ranking import attribute_flow_cause
from repro.core.votes import VoteTally
from repro.metrics.evaluation import detection_precision_recall, top_k_recall
from repro.routing.fivetuple import FiveTuple
from repro.routing.paths import Path
from repro.routing.routing_matrix import build_routing_matrix
from repro.theory.theorem2 import (
    error_probability_bound,
    kl_divergence_bernoulli,
    retransmission_probability,
)
from repro.topology.elements import DirectedLink, Link

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
node_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
link_strategy = st.builds(
    DirectedLink,
    src=st.sampled_from([f"n{i}" for i in range(8)]),
    dst=st.sampled_from([f"m{i}" for i in range(8)]),
)
path_links_strategy = st.lists(link_strategy, min_size=1, max_size=6, unique=True)
ports = st.integers(min_value=0, max_value=65535)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestLinkProperties:
    @given(src=node_names, dst=node_names)
    def test_directed_link_reverse_is_involution(self, src, dst):
        link = DirectedLink(src, dst)
        assert link.reversed().reversed() == link

    @given(src=node_names, dst=node_names)
    def test_undirected_link_is_order_independent(self, src, dst):
        assert Link.of(src, dst) == Link.of(dst, src)

    @given(src=node_names, dst=node_names)
    def test_directions_share_the_physical_link(self, src, dst):
        physical = Link.of(src, dst)
        for direction in physical.directions():
            assert direction.undirected() == physical


class TestFiveTupleProperties:
    @given(src=node_names, dst=node_names, sport=ports, dport=ports)
    def test_reverse_is_involution(self, src, dst, sport, dport):
        flow = FiveTuple(src, dst, sport, dport)
        assert flow.reversed().reversed() == flow

    @given(src=node_names, dst=node_names, sport=ports, dport=ports, new_dst=node_names)
    def test_destination_rewrite_preserves_source(self, src, dst, sport, dport, new_dst):
        flow = FiveTuple(src, dst, sport, dport)
        rewritten = flow.with_destination(new_dst)
        assert rewritten.src_ip == src and rewritten.src_port == sport
        assert rewritten.dst_ip == new_dst


class TestPathProperties:
    @given(nodes=st.lists(st.sampled_from([f"x{i}" for i in range(10)]), min_size=2, max_size=7, unique=True))
    def test_from_nodes_roundtrip(self, nodes):
        path = Path.from_nodes(nodes)
        assert path.nodes() == list(nodes)
        assert path.hop_count == len(nodes) - 1

    @given(
        nodes=st.lists(st.sampled_from([f"x{i}" for i in range(10)]), min_size=3, max_size=7, unique=True),
        keep=st.integers(min_value=1, max_value=6),
    )
    def test_prefix_is_a_prefix(self, nodes, keep):
        path = Path.from_nodes(nodes)
        keep = min(keep, path.hop_count)
        prefix = path.prefix(keep)
        assert prefix.links == path.links[:keep]


# ----------------------------------------------------------------------
# voting and Algorithm 1
# ----------------------------------------------------------------------
class TestVotingProperties:
    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_total_votes_equals_number_of_flows(self, paths):
        """With 1/h votes every voting flow contributes exactly one vote in total."""
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        assert math.isclose(tally.total_votes(), len(paths), rel_tol=1e-9)

    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_votes_are_nonnegative_and_ranking_sorted(self, paths):
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        items = tally.items()
        assert all(votes >= 0 for _, votes in items)
        assert all(a[1] >= b[1] for a, b in zip(items, items[1:]))

    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_attributed_cause_lies_on_the_flow_path(self, paths):
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        for links in paths:
            cause = attribute_flow_cause(tally, links)
            assert cause in links

    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_top_link_has_max_votes(self, paths):
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        ((top, _),) = tally.top(1)
        assert tally.votes_of(top) == max(v for _, v in tally.items())


class TestBlameProperties:
    @given(
        paths=st.lists(path_links_strategy, min_size=1, max_size=20),
        threshold=st.floats(min_value=0.001, max_value=0.5),
    )
    @settings(max_examples=50)
    def test_detected_links_have_votes_above_threshold(self, paths, threshold):
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        result = find_problematic_links(tally, BlameConfig(threshold_fraction=threshold))
        for link in result.detected_links:
            assert result.votes_at_detection[link] >= result.threshold_votes - 1e-12
        # No duplicates are ever reported.
        assert len(result.detected_links) == len(set(result.detected_links))

    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_detection_monotone_in_threshold(self, paths):
        tally = VoteTally()
        for flow_id, links in enumerate(paths):
            tally.add_flow(flow_id, links)
        low = find_problematic_links(tally, BlameConfig(threshold_fraction=0.01))
        high = find_problematic_links(tally, BlameConfig(threshold_fraction=0.3))
        assert len(high.detected_links) <= len(low.detected_links)


# ----------------------------------------------------------------------
# set cover and metrics
# ----------------------------------------------------------------------
class TestSetCoverProperties:
    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_greedy_cover_explains_every_flow(self, paths):
        routing = build_routing_matrix(paths)
        chosen = set(greedy_max_coverage(routing))
        for links in paths:
            assert chosen & set(links)

    @given(paths=st.lists(path_links_strategy, min_size=1, max_size=15))
    @settings(max_examples=50)
    def test_greedy_cover_never_larger_than_flow_count(self, paths):
        routing = build_routing_matrix(paths)
        assert len(greedy_max_coverage(routing)) <= len(paths)


class TestMetricProperties:
    @given(
        detected=st.lists(link_strategy, max_size=8, unique=True),
        truth=st.lists(link_strategy, max_size=8, unique=True),
    )
    def test_precision_recall_bounds(self, detected, truth):
        score = detection_precision_recall(detected, truth)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0

    @given(
        ranked=st.lists(link_strategy, max_size=10, unique=True),
        truth=st.lists(link_strategy, max_size=6, unique=True),
    )
    def test_top_k_recall_bounds_and_monotone_in_k(self, ranked, truth):
        full = top_k_recall(ranked, truth, k=len(ranked))
        partial = top_k_recall(ranked, truth, k=max(1, len(ranked) // 2))
        assert 0.0 <= partial <= full <= 1.0


# ----------------------------------------------------------------------
# theory
# ----------------------------------------------------------------------
class TestTheoryProperties:
    @given(p=st.floats(min_value=0.0, max_value=1.0), c=st.integers(min_value=0, max_value=500))
    def test_retransmission_probability_in_unit_interval(self, p, c):
        value = retransmission_probability(p, c)
        assert 0.0 <= value <= 1.0

    @given(
        p=st.floats(min_value=1e-6, max_value=0.1),
        c1=st.integers(min_value=1, max_value=200),
        c2=st.integers(min_value=1, max_value=200),
    )
    def test_retransmission_probability_monotone_in_packets(self, p, c1, c2):
        low, high = sorted((c1, c2))
        assert retransmission_probability(p, low) <= retransmission_probability(p, high) + 1e-12

    @given(q=st.floats(min_value=0.01, max_value=0.99), r=st.floats(min_value=0.01, max_value=0.99))
    def test_kl_nonnegative(self, q, r):
        assert kl_divergence_bernoulli(q, r) >= -1e-12

    @given(
        n1=st.integers(min_value=10, max_value=10_000),
        n2=st.integers(min_value=10, max_value=10_000),
        vg=st.floats(min_value=1e-7, max_value=1e-4),
        ratio=st.floats(min_value=2.0, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_error_bound_monotone_in_connections(self, n1, n2, vg, ratio):
        vb = min(0.5, vg * ratio)
        low, high = sorted((n1, n2))
        assert error_probability_bound(high, vg, vb) <= error_probability_bound(low, vg, vb) + 1e-12
