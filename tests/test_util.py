"""Unit tests for repro.util (RNG plumbing and statistics helpers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rng import ensure_rng, spawn_rng
from repro.util.stats import percentile


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=5)
        b = ensure_rng(42).integers(0, 1_000_000, size=5)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_seed(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRng:
    def test_deterministic_for_seed(self):
        a = spawn_rng(7, 1).integers(0, 1_000_000, size=3)
        b = spawn_rng(7, 1).integers(0, 1_000_000, size=3)
        assert list(a) == list(b)

    def test_different_indices_differ(self):
        a = spawn_rng(7, 1).integers(0, 1_000_000, size=8)
        b = spawn_rng(7, 2).integers(0, 1_000_000, size=8)
        assert list(a) != list(b)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(0)
        child = spawn_rng(gen, 0)
        assert isinstance(child, np.random.Generator)


class TestPercentile:
    def test_empty_is_nan(self):
        assert np.isnan(percentile([], 50))

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 100.0
