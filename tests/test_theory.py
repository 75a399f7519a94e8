"""Unit tests for the theoretical bounds (Theorems 1 and 2)."""

from __future__ import annotations

import math

import pytest

from repro.theory.theorem1 import (
    level1_icmp_rate,
    level2_icmp_rate,
    traceroute_rate_bound,
)
from repro.theory.theorem2 import (
    alpha,
    error_probability_bound,
    kl_divergence_bernoulli,
    max_detectable_bad_links,
    noise_tolerance_bound,
    retransmission_probability,
    theorem2_conditions_hold,
    vote_probability_bounds,
)
from repro.topology.clos import ClosParameters

PAPER_LIKE = ClosParameters(npod=2, n0=20, n1=8, n2=8, hosts_per_tor=20)


class TestTheorem1:
    def test_bound_formula(self):
        params = PAPER_LIKE
        ct = traceroute_rate_bound(params, tmax=100)
        level2_term = params.n2 * (params.n0 * params.npod - 1) / (
            params.n0 * (params.npod - 1)
        )
        expected = 100 / (params.n0 * params.hosts_per_tor) * min(params.n1, level2_term)
        assert ct == pytest.approx(expected)

    def test_bound_keeps_switches_under_tmax(self):
        params = PAPER_LIKE
        ct = traceroute_rate_bound(params, tmax=100)
        assert max(level1_icmp_rate(params, ct), level2_icmp_rate(params, ct)) <= 100
        assert max(level1_icmp_rate(params, ct * 4), level2_icmp_rate(params, ct * 4)) > 100

    def test_single_pod_uses_level1_term(self):
        params = ClosParameters(npod=1, n0=10, n1=4, n2=2, hosts_per_tor=4)
        ct = traceroute_rate_bound(params, tmax=100)
        assert ct == pytest.approx(100 / (10 * 4) * 4)
        assert level2_icmp_rate(params, ct) == 0.0

    def test_bound_scales_with_tmax(self):
        assert traceroute_rate_bound(PAPER_LIKE, tmax=200) == pytest.approx(
            2 * traceroute_rate_bound(PAPER_LIKE, tmax=100)
        )

    def test_invalid_tmax_raises(self):
        with pytest.raises(ValueError):
            traceroute_rate_bound(PAPER_LIKE, tmax=0)

    def test_level_rates_positive(self):
        ct = traceroute_rate_bound(PAPER_LIKE, tmax=100)
        assert level1_icmp_rate(PAPER_LIKE, ct) > 0
        assert level2_icmp_rate(PAPER_LIKE, ct) > 0


class TestRetransmissionProbability:
    def test_zero_drop_rate(self):
        assert retransmission_probability(0.0, 100) == 0.0

    def test_full_drop_rate(self):
        assert retransmission_probability(1.0, 1) == 1.0

    def test_monotone_in_packets(self):
        assert retransmission_probability(0.01, 200) > retransmission_probability(0.01, 10)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            retransmission_probability(-0.1, 10)
        with pytest.raises(ValueError):
            retransmission_probability(0.1, -1)


class TestTheorem2Constants:
    def test_alpha_positive_in_regime(self):
        assert alpha(PAPER_LIKE, num_bad_links=5) > 0

    def test_alpha_requires_two_pods(self):
        with pytest.raises(ValueError):
            alpha(ClosParameters(npod=1), num_bad_links=1)

    def test_alpha_rejects_too_many_bad_links(self):
        params = ClosParameters(npod=2, n0=20, n1=4, n2=2, hosts_per_tor=2)
        too_many = int(max_detectable_bad_links(params)) + 5
        with pytest.raises(ValueError):
            alpha(params, num_bad_links=too_many)

    def test_max_detectable_bad_links_formula(self):
        params = PAPER_LIKE
        expected = params.n2 * (params.n0 * params.npod - 1) / (
            params.n0 * (params.npod - 1)
        )
        assert max_detectable_bad_links(params) == pytest.approx(expected)

    def test_noise_tolerance_decreases_with_more_packets(self):
        loose = noise_tolerance_bound(PAPER_LIKE, 5e-4, 5, 50, 50)
        tight = noise_tolerance_bound(PAPER_LIKE, 5e-4, 5, 50, 500)
        assert tight < loose

    def test_noise_tolerance_invalid_packet_bounds(self):
        with pytest.raises(ValueError):
            noise_tolerance_bound(PAPER_LIKE, 5e-4, 5, 100, 50)

    def test_conditions_hold_for_large_enough_pod_count(self):
        # The structural condition needs npod >= 1 + n0/n1; with n0=20, n1=8
        # that means at least 4 pods.
        params = ClosParameters(npod=4, n0=20, n1=8, n2=8, hosts_per_tor=20)
        assert theorem2_conditions_hold(params, num_bad_links=5)
        assert not theorem2_conditions_hold(PAPER_LIKE, num_bad_links=5)

    def test_conditions_fail_for_single_pod(self):
        assert not theorem2_conditions_hold(
            ClosParameters(npod=1, n0=10, n1=4, n2=2, hosts_per_tor=2), 1
        )

    def test_paper_example_noise_tolerance_order_of_magnitude(self):
        # Paper: with pb >= 0.05% the tolerated good-link drop rate is ~1.8e-6,
        # far above the ~1e-8 observed in production.  Exact values depend on
        # their (unpublished) nl/nu; we check the order of magnitude story:
        # tolerance must comfortably exceed 1e-8.
        tolerance = noise_tolerance_bound(PAPER_LIKE, 5e-4, 10, 10, 1000)
        assert tolerance > 1e-8


class TestVoteProbabilityBounds:
    def test_bad_bound_scales_with_retx_probability(self):
        low_vb, _ = vote_probability_bounds(PAPER_LIKE, 0.1, 1e-6, 5)
        high_vb, _ = vote_probability_bounds(PAPER_LIKE, 0.5, 1e-6, 5)
        assert high_vb > low_vb

    def test_good_upper_bound_grows_with_noise(self):
        _, low_vg = vote_probability_bounds(PAPER_LIKE, 0.1, 1e-6, 5)
        _, high_vg = vote_probability_bounds(PAPER_LIKE, 0.1, 1e-3, 5)
        assert high_vg > low_vg

    def test_requires_two_pods(self):
        with pytest.raises(ValueError):
            vote_probability_bounds(ClosParameters(npod=1), 0.1, 1e-6, 1)

    def test_separation_in_low_noise_regime(self):
        vb, vg = vote_probability_bounds(PAPER_LIKE, 0.2, 1e-7, 5)
        assert vb > vg


class TestKlAndErrorBound:
    def test_kl_zero_for_identical(self):
        assert kl_divergence_bernoulli(0.3, 0.3) == pytest.approx(0.0)

    def test_kl_positive_for_different(self):
        assert kl_divergence_bernoulli(0.2, 0.4) > 0

    def test_kl_symmetric_edge_cases(self):
        assert kl_divergence_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))
        assert math.isinf(kl_divergence_bernoulli(0.5, 0.0))

    def test_kl_invalid_probability(self):
        with pytest.raises(ValueError):
            kl_divergence_bernoulli(1.5, 0.5)

    def test_error_bound_decreases_with_connections(self):
        few = error_probability_bound(1_000, 1e-5, 1e-3)
        many = error_probability_bound(100_000, 1e-5, 1e-3)
        assert many < few

    def test_error_bound_trivial_when_no_separation(self):
        assert error_probability_bound(10_000, 1e-3, 1e-3) == 1.0
        assert error_probability_bound(10_000, 2e-3, 1e-3) == 1.0

    def test_error_bound_capped_at_one(self):
        assert error_probability_bound(0, 1e-5, 1e-3) <= 1.0

    def test_invalid_delta_raises(self):
        with pytest.raises(ValueError):
            error_probability_bound(100, 1e-5, 1e-3, delta=2.0)

    def test_negative_connections_raise(self):
        with pytest.raises(ValueError):
            error_probability_bound(-1, 1e-5, 1e-3)
