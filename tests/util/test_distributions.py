"""Tests for repro.util.distributions: calibration and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.distributions import (
    DiscreteLogNormal,
    ParetoCount,
    bounded_zipf,
)


class TestDiscreteLogNormal:
    def test_median_calibration(self):
        """The sample median lands near the configured median — this is the
        property the Figure 1(a) calibration depends on."""
        dist = DiscreteLogNormal(median=8.0, sigma=1.2)
        sample = dist.sample(0, 20_000)
        assert 6 <= np.median(sample) <= 10

    def test_minimum_clamp(self):
        dist = DiscreteLogNormal(median=1.0, sigma=2.0, minimum=1)
        sample = dist.sample(1, 5_000)
        assert sample.min() >= 1

    def test_maximum_clamp(self):
        dist = DiscreteLogNormal(median=100.0, sigma=2.0, maximum=1024)
        sample = dist.sample(2, 5_000)
        assert sample.max() <= 1024

    def test_heavier_sigma_heavier_tail(self):
        light = DiscreteLogNormal(median=10.0, sigma=0.5).sample(3, 20_000)
        heavy = DiscreteLogNormal(median=10.0, sigma=1.8).sample(3, 20_000)
        assert np.percentile(heavy, 99) > np.percentile(light, 99)

    def test_deterministic_given_seed(self):
        dist = DiscreteLogNormal(median=5.0, sigma=1.0)
        assert np.array_equal(dist.sample(7, 100), dist.sample(7, 100))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DiscreteLogNormal(median=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            DiscreteLogNormal(median=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            DiscreteLogNormal(median=1.0, sigma=1.0, minimum=5, maximum=4)

    @given(st.floats(min_value=0.5, max_value=200.0), st.floats(min_value=0.1, max_value=2.5))
    @settings(max_examples=25, deadline=None)
    def test_samples_are_integers(self, median, sigma):
        sample = DiscreteLogNormal(median=median, sigma=sigma).sample(0, 50)
        assert sample.dtype == np.int64


class TestParetoCount:
    def test_minimum_respected(self):
        sample = ParetoCount(minimum=100, alpha=1.2).sample(0, 5_000)
        assert sample.min() >= 100

    def test_spans_orders_of_magnitude(self):
        """Low alpha should produce the multi-decade spread of Figure 1(c)."""
        sample = ParetoCount(minimum=1000, alpha=0.8).sample(1, 20_000)
        assert sample.max() / sample.min() > 1_000

    def test_maximum_clamp(self):
        sample = ParetoCount(minimum=10, alpha=0.5, maximum=10**6).sample(2, 10_000)
        assert sample.max() <= 10**6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ParetoCount(minimum=0, alpha=1.0)
        with pytest.raises(ValueError):
            ParetoCount(minimum=1, alpha=-1.0)


class TestBoundedZipf:
    def test_indices_in_range(self):
        sample = bounded_zipf(0, exponent=1.0, n_items=10, size=1_000)
        assert sample.min() >= 0 and sample.max() < 10

    def test_rank_zero_most_popular(self):
        sample = bounded_zipf(1, exponent=1.2, n_items=20, size=50_000)
        counts = np.bincount(sample, minlength=20)
        assert counts[0] == counts.max()
        assert counts[0] > 3 * counts[19]

    def test_zero_exponent_is_uniform(self):
        sample = bounded_zipf(2, exponent=0.0, n_items=5, size=50_000)
        counts = np.bincount(sample, minlength=5)
        assert counts.min() > 0.8 * counts.max()
