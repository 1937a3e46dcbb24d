"""Statistics helpers mirroring the analyses of the paper's Section 2.

Figure 1 plots cumulative fractions against log-scaled counts; Figure 3(b)
is a correlation claim.  :class:`EmpiricalCDF` is the single representation
used by the measurement pipeline, the benchmarks, and the ASCII plots, so
every reproduction of a paper figure flows through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np


def _as_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    return array


def _effectively_constant(array: np.ndarray) -> bool:
    """True when the spread is rounding residue, not signal.

    ``np.std`` of identical floats can come out as a tiny nonzero value
    (mean round-off); correlating against that residue amplifies noise
    into a garbage coefficient, so anything within a few ulps of constant
    counts as constant.  The threshold is relative to the sample's own
    magnitude: tiny-but-genuine spread in denormal-scale data is signal,
    while rounding residue sits ~1e-16 of the magnitude, far below 1e-12.
    """
    scale = float(np.max(np.abs(array)))
    if scale == 0.0:
        return True
    # Divide *before* np.std: squared deviations of denormal-scale data
    # underflow to zero, which would misread genuine spread as constant.
    return float(np.std(array / scale)) <= 1e-12


def _standardized(array: np.ndarray) -> np.ndarray:
    """Center and rescale to O(1) without changing the correlation.

    Pearson is invariant under affine maps, but ``corrcoef`` on raw
    denormal-scale data underflows (squared deviations of ~1e-268 round
    to zero), silently zeroing a genuine correlation.  Dividing by the
    largest absolute deviation puts every product in comfortable range.
    """
    centered = array - float(np.mean(array))
    spread = float(np.max(np.abs(centered)))
    return centered / spread


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical cumulative distribution of a sample.

    ``evaluate(x)`` returns the fraction of samples ``<= x`` — exactly the
    "cumulative fraction of entities" axis of Figure 1(a) and the
    "cumulative fraction of queries" axis of Figure 1(b).
    """

    sorted_values: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "EmpiricalCDF":
        array = _as_array(values)
        if array.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        return cls(sorted_values=np.sort(array))

    @property
    def n(self) -> int:
        return int(self.sorted_values.size)

    def evaluate(self, x: float) -> float:
        """Fraction of samples less than or equal to ``x``."""
        return float(np.searchsorted(self.sorted_values, x, side="right")) / self.n

    def evaluate_many(self, xs: Sequence[float] | np.ndarray) -> np.ndarray:
        grid = _as_array(xs)
        ranks = np.searchsorted(self.sorted_values, grid, side="right")
        return ranks.astype(np.float64) / self.n

    def quantile(self, q: float) -> float:
        """Inverse CDF at ``q`` in [0, 1].

        Uses the inverted-CDF definition (smallest sample value ``x`` with
        ``F(x) >= q``) so that ``evaluate(quantile(q)) >= q`` always holds —
        the exact inverse of the empirical step function, not an
        interpolation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        return float(np.quantile(self.sorted_values, q, method="inverted_cdf"))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def series(self, grid: Sequence[float] | np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, F(x))`` suitable for plotting.

        Without a grid, uses the distinct sample values (the exact empirical
        step function); with a grid (e.g. the powers of two on Figure 1's
        x-axis) evaluates at those points.
        """
        if grid is None:
            xs = np.unique(self.sorted_values)
        else:
            xs = _as_array(grid)
        return xs, self.evaluate_many(xs)

    def ks_distance(self, other: "EmpiricalCDF") -> float:
        """Kolmogorov–Smirnov distance between two empirical CDFs."""
        grid = np.union1d(self.sorted_values, other.sorted_values)
        return float(np.max(np.abs(self.evaluate_many(grid) - other.evaluate_many(grid))))


def median(values: Sequence[float] | np.ndarray) -> float:
    """Median of a sample (the statistic the paper reports most often)."""
    array = _as_array(values)
    if array.size == 0:
        raise ValueError("median of an empty sample is undefined")
    return float(np.median(array))


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """``q``-th percentile (``q`` in [0, 100])."""
    array = _as_array(values)
    if array.size == 0:
        raise ValueError("percentile of an empty sample is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    return float(np.percentile(array, q))


def pearson(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient; 0.0 for degenerate (constant) input.

    Figure 3(b)'s claim is that distance travelled correlates with visit
    count for a genuinely endorsed dentist; a constant series carries no
    signal so we define its correlation as zero rather than NaN.
    """
    x = _as_array(xs)
    y = _as_array(ys)
    if x.size != y.size:
        raise ValueError("samples must have equal length")
    if x.size < 2:
        return 0.0
    if _effectively_constant(x) or _effectively_constant(y):
        return 0.0
    return float(np.corrcoef(_standardized(x), _standardized(y))[0, 1])


def spearman(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation; 0.0 for degenerate input."""
    x = _as_array(xs)
    y = _as_array(ys)
    if x.size != y.size:
        raise ValueError("samples must have equal length")
    if x.size < 2:
        return 0.0
    rank_x = np.argsort(np.argsort(x)).astype(np.float64)
    rank_y = np.argsort(np.argsort(y)).astype(np.float64)
    return pearson(rank_x, rank_y)


def gini(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient of a non-negative sample.

    Used to quantify how concentrated review-writing is among users — the
    paper's "1/9/90 rule" citation implies extreme concentration (Gini
    close to 1) for explicit feedback.
    """
    array = _as_array(values)
    if array.size == 0:
        raise ValueError("gini of an empty sample is undefined")
    if np.any(array < 0):
        raise ValueError("gini requires non-negative values")
    total = array.sum()
    if total == 0:
        return 0.0
    sorted_values = np.sort(array)
    n = sorted_values.size
    cumulative = np.cumsum(sorted_values)
    return float((n + 1 - 2 * (cumulative / total).sum()) / n)
