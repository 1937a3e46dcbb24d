"""Heavy-tailed count distributions used throughout the synthetic ecosystem.

The paper's measurement study (Section 2) shows review counts, install
counts, and view counts that are heavy-tailed: most entities have a handful
of reviews while a few have thousands.  Two families cover every use in this
library:

* :class:`DiscreteLogNormal` — log-normal rounded to integers, the standard
  model for per-entity review counts (body heavy, tail sub-power-law).  Its
  median is ``exp(mu)``, which makes calibrating to the paper's published
  medians (8 / 5 / 25 reviews) a one-liner.
* :class:`ParetoCount` — discrete Pareto (power-law) counts for the extreme
  tails of implicit interactions (YouTube views span seven orders of
  magnitude).

Both are deliberately tiny wrappers with explicit parameters rather than
fitted black boxes, so benchmark calibrations are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.rng import make_rng


@dataclass(frozen=True)
class DiscreteLogNormal:
    """Integer counts ``max(minimum, round(LogNormal(mu, sigma)))``.

    Parameters
    ----------
    median:
        Median of the underlying continuous log-normal (``exp(mu)``).
    sigma:
        Shape parameter of the log-normal; larger means heavier tail.
    minimum:
        Lower clamp, default 0 (an entity can have zero reviews).
    maximum:
        Optional upper clamp to keep synthetic tails within the axis range
        the paper plots (e.g. 1024 reviews in Figure 1(a)).
    """

    median: float
    sigma: float
    minimum: int = 0
    maximum: int | None = None

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError("median must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.maximum is not None and self.maximum < self.minimum:
            raise ValueError("maximum must be >= minimum")

    @property
    def mu(self) -> float:
        """Location parameter of the underlying normal."""
        return math.log(self.median)

    def sample(self, rng: int | np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` integer counts."""
        gen = make_rng(rng)
        values = gen.lognormal(mean=self.mu, sigma=self.sigma, size=size)
        counts = np.rint(values).astype(np.int64)
        counts = np.maximum(counts, self.minimum)
        if self.maximum is not None:
            counts = np.minimum(counts, self.maximum)
        return counts


@dataclass(frozen=True)
class ParetoCount:
    """Discrete Pareto counts ``floor(minimum * (1 - U)^(-1/alpha))``.

    Used for implicit-interaction counts (app installs, video views) whose
    tails are far heavier than review counts.  ``alpha`` near 1 gives the
    multi-order-of-magnitude spread visible in Figure 1(c).
    """

    minimum: int
    alpha: float
    maximum: int | None = None

    def __post_init__(self) -> None:
        if self.minimum < 1:
            raise ValueError("minimum must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.maximum is not None and self.maximum < self.minimum:
            raise ValueError("maximum must be >= minimum")

    def sample(self, rng: int | np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` integer counts."""
        gen = make_rng(rng)
        uniforms = gen.random(size)
        values = self.minimum * np.power(1.0 - uniforms, -1.0 / self.alpha)
        counts = np.floor(values).astype(np.int64)
        if self.maximum is not None:
            counts = np.minimum(counts, self.maximum)
        return counts


def bounded_zipf(rng: int | np.random.Generator, exponent: float, n_items: int, size: int) -> np.ndarray:
    """Sample ``size`` indices in ``[0, n_items)`` with Zipf popularity.

    Item 0 is the most popular.  Used for skewed entity popularity within a
    query result (a few restaurants get most of the visits) and for skewed
    category popularity.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    gen = make_rng(rng)
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    probabilities = weights / weights.sum()
    return gen.choice(n_items, size=size, p=probabilities)
