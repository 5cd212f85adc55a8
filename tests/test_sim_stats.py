"""Unit tests for statistics primitives."""

from __future__ import annotations

import pytest

from repro.sim.rng import derive_seed, stream
from repro.sim.stats import LatencySummary, percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_median_odd(self):
        assert percentile([1.0, 2.0, 9.0], 0.5) == 2.0

    def test_median_interpolates(self):
        assert percentile([1.0, 3.0], 0.5) == 2.0

    def test_extremes(self):
        values = [float(v) for v in range(10)]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 1.0) == 9.0


class TestExactSummary:
    def test_empty_summary_is_zeros(self):
        summary = LatencySummary.exact([])
        assert summary == LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_summary_fields(self):
        # unsorted input, consumed from a one-shot iterator
        summary = LatencySummary.exact(
            float(value) for value in reversed(range(1, 101)))
        assert summary.count == 100
        assert summary.mean_us == pytest.approx(50.5)
        assert summary.p50_us == pytest.approx(50.5)
        assert summary.p99_us == pytest.approx(99.01)
        assert summary.max_us == 100.0


class TestRng:
    def test_streams_are_deterministic(self):
        a = stream(42, "arrivals")
        b = stream(42, "arrivals")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        a = stream(42, "a")
        b = stream(42, "b")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_streams_differ_by_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")
