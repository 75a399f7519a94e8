"""Unit tests for the ICMP rate limiter (Theorem 1's operational side)."""

from __future__ import annotations

import pytest

from repro.discovery.icmp import IcmpRateLimiter


class TestRateLimiting:
    def test_allows_up_to_tmax_per_second(self):
        limiter = IcmpRateLimiter(tmax_per_second=3)
        assert all(limiter.allow("sw", 0.0) for _ in range(3))
        assert not limiter.allow("sw", 0.5)  # same second, budget exhausted
        assert limiter.allow("sw", 1.0)  # next second, budget renewed

    def test_independent_per_switch(self):
        limiter = IcmpRateLimiter(tmax_per_second=1)
        assert limiter.allow("a", 0.0)
        assert limiter.allow("b", 0.0)
        assert not limiter.allow("a", 0.0)

    def test_invalid_tmax_raises(self):
        with pytest.raises(ValueError):
            IcmpRateLimiter(tmax_per_second=0)

    def test_reset(self):
        limiter = IcmpRateLimiter()
        limiter.allow("sw", 0.0)
        limiter.reset()
        stats = limiter.usage_stats(total_seconds=1)
        assert stats.fraction_zero == 1.0 and stats.max_rate == 0


class TestUsageStats:
    def test_no_switches(self):
        stats = IcmpRateLimiter().usage_stats(10)
        assert stats.fraction_zero == 1.0
        assert stats.num_samples == 0

    def test_distribution_fractions_sum_to_one(self):
        limiter = IcmpRateLimiter()
        limiter.register_switches(["a", "b"])
        for _ in range(2):
            limiter.allow("a", 0.0)
        for _ in range(5):
            limiter.allow("b", 1.0)
        stats = limiter.usage_stats(total_seconds=10)
        assert stats.num_samples == 20
        total = stats.fraction_zero + stats.fraction_low + stats.fraction_high
        assert total == pytest.approx(1.0)
        assert stats.max_rate == 5

    def test_low_vs_high_buckets(self):
        limiter = IcmpRateLimiter()
        limiter.register_switch("a")
        for _ in range(3):
            limiter.allow("a", 0.0)  # exactly 3 -> "low" bucket
        for _ in range(4):
            limiter.allow("a", 1.0)  # 4 -> "high" bucket
        stats = limiter.usage_stats(total_seconds=4)
        assert stats.fraction_low == pytest.approx(1 / 4)
        assert stats.fraction_high == pytest.approx(1 / 4)
        assert stats.fraction_zero == pytest.approx(2 / 4)

    def test_as_row_keys(self):
        limiter = IcmpRateLimiter()
        limiter.register_switch("a")
        row = limiter.usage_stats(1).as_row()
        assert set(row) == {"T = 0", "T > 0 & T <= 3", "T > 3", "max(T)"}

    def test_invalid_total_seconds_raises(self):
        with pytest.raises(ValueError):
            IcmpRateLimiter().usage_stats(0)
