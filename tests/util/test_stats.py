"""Tests for repro.util.stats, including CDF property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    EmpiricalCDF,
    gini,
    median,
    pearson,
    percentile,
    spearman,
)

finite_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


class TestEmpiricalCDF:
    def test_known_values(self):
        cdf = EmpiricalCDF.from_values([1, 2, 3, 4])
        assert cdf.evaluate(0) == 0.0
        assert cdf.evaluate(2) == 0.5
        assert cdf.evaluate(4) == 1.0
        assert cdf.evaluate(100) == 1.0

    def test_median_matches_numpy(self):
        values = [5, 1, 9, 3, 7]
        assert EmpiricalCDF.from_values(values).median == np.median(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_values([])

    @given(finite_samples)
    @settings(max_examples=50, deadline=None)
    def test_monotone_nondecreasing(self, values):
        """F(x) must be monotone — the defining CDF property."""
        cdf = EmpiricalCDF.from_values(values)
        grid = np.linspace(min(values) - 1, max(values) + 1, 50)
        evaluated = cdf.evaluate_many(grid)
        assert np.all(np.diff(evaluated) >= 0)

    @given(finite_samples)
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, values):
        cdf = EmpiricalCDF.from_values(values)
        assert cdf.evaluate(min(values) - 1) == 0.0
        assert cdf.evaluate(max(values)) == 1.0

    @given(finite_samples, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_quantile_roundtrip(self, values, q):
        """F(quantile(q)) >= q: the quantile is a valid inverse."""
        cdf = EmpiricalCDF.from_values(values)
        assert cdf.evaluate(cdf.quantile(q)) >= q - 1e-12

    def test_series_default_grid_is_step_function(self):
        cdf = EmpiricalCDF.from_values([1, 1, 2, 5])
        xs, ys = cdf.series()
        assert list(xs) == [1, 2, 5]
        assert list(ys) == [0.5, 0.75, 1.0]

    def test_ks_distance_identical_is_zero(self):
        cdf = EmpiricalCDF.from_values([1, 2, 3])
        assert cdf.ks_distance(cdf) == 0.0

    def test_ks_distance_disjoint_is_one(self):
        a = EmpiricalCDF.from_values([1, 2])
        b = EmpiricalCDF.from_values([10, 20])
        assert a.ks_distance(b) == 1.0

    def test_ks_distance_symmetric(self):
        a = EmpiricalCDF.from_values([1, 5, 9])
        b = EmpiricalCDF.from_values([2, 4, 8, 16])
        assert a.ks_distance(b) == pytest.approx(b.ks_distance(a))


class TestScalarStats:
    def test_median_and_percentile_agree(self):
        values = list(range(101))
        assert median(values) == percentile(values, 50)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            percentile([], 50)


class TestCorrelation:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_constant_series_is_zero_not_nan(self):
        assert pearson([1, 2, 3], [5, 5, 5]) == 0.0

    def test_single_point_is_zero(self):
        assert pearson([1], [2]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1])

    def test_spearman_monotone_nonlinear(self):
        xs = [1, 2, 3, 4, 5]
        ys = [1, 8, 27, 64, 125]  # monotone but nonlinear
        assert spearman(xs, ys) == pytest.approx(1.0)

    @given(finite_samples.filter(lambda v: len(v) >= 2))
    @settings(max_examples=50, deadline=None)
    def test_pearson_in_range(self, values):
        rng = np.random.default_rng(0)
        other = rng.random(len(values))
        r = pearson(values, other)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestGini:
    def test_perfect_equality_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_total_concentration_near_one(self):
        values = [0] * 999 + [100]
        assert gini(values) > 0.99

    def test_all_zero_is_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, values):
        g = gini(values)
        assert 0.0 <= g <= 1.0


class TestAgainstScipy:
    """Cross-validate the hand-rolled statistics against scipy."""

    @given(finite_samples.filter(lambda v: len(v) >= 3))
    @settings(max_examples=40, deadline=None)
    def test_ks_distance_matches_scipy(self, values):
        from scipy import stats as scipy_stats

        rng = np.random.default_rng(0)
        other = list(rng.normal(0, 1000, size=len(values)))
        ours = EmpiricalCDF.from_values(values).ks_distance(
            EmpiricalCDF.from_values(other)
        )
        theirs = scipy_stats.ks_2samp(values, other).statistic
        assert ours == pytest.approx(theirs, abs=1e-9)

    @given(finite_samples.filter(lambda v: len(v) >= 3))
    @example(values=[0.0, 0.0, 5e-324])
    @settings(max_examples=40, deadline=None)
    def test_pearson_matches_scipy(self, values):
        from scipy import stats as scipy_stats

        import warnings

        rng = np.random.default_rng(1)
        other = rng.normal(0, 1, size=len(values))
        ours = pearson(values, other)
        if 0.0 < max(values) - min(values) < np.finfo(np.float64).tiny:
            # A spread below the normal range is where scipy itself loses
            # the digits ([0, 0, 5e-324] reads -0.4273 there, not the
            # -0.5233 of [0, 0, 1]).  Pearson is scale invariant and a
            # power-of-two rescale is exact, so hold ours to itself on the
            # input lifted into the normal range instead.
            rescaled = [float(np.ldexp(value, 600)) for value in values]
            assert ours == pytest.approx(pearson(rescaled, other), abs=1e-6)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            theirs = scipy_stats.pearsonr(values, other).statistic
        if np.isnan(theirs):
            # scipy declines constant input; we define it as 0.
            assert ours == 0.0
            return
        # Implementations differ in summation order; with denormal-scale
        # inputs catastrophic cancellation costs a few digits.
        assert ours == pytest.approx(theirs, abs=1e-6)

    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=5, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_spearman_matches_scipy_on_distinct_values(self, values):
        from scipy import stats as scipy_stats

        distinct = list(dict.fromkeys(values))
        if len(distinct) < 3:
            return
        rng = np.random.default_rng(2)
        other = list(rng.permutation(len(distinct)).astype(float))
        ours = spearman(distinct, other)
        theirs = scipy_stats.spearmanr(distinct, other).statistic
        assert ours == pytest.approx(theirs, abs=1e-9)
