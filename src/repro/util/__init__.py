"""Shared infrastructure: seeded randomness, distributions, statistics, clock.

Everything stochastic in :mod:`repro` flows through :func:`repro.util.rng.make_rng`
so that simulations, tests, and benchmarks are exactly reproducible from a
single integer seed.
"""

from repro.util.clock import HOUR, MINUTE, SimClock, WEEK, DAY, YEAR, format_time
from repro.util.distributions import (
    DiscreteLogNormal,
    ParetoCount,
    bounded_zipf,
)
from repro.util.hashing import record_id, stable_digest, stable_u64
from repro.util.rng import children, derive_seed, make_rng
from repro.util.stats import (
    EmpiricalCDF,
    gini,
    median,
    pearson,
    percentile,
    spearman,
)

__all__ = [
    "DAY",
    "DiscreteLogNormal",
    "EmpiricalCDF",
    "HOUR",
    "MINUTE",
    "ParetoCount",
    "SimClock",
    "WEEK",
    "YEAR",
    "bounded_zipf",
    "children",
    "derive_seed",
    "format_time",
    "gini",
    "make_rng",
    "median",
    "pearson",
    "percentile",
    "record_id",
    "spearman",
    "stable_digest",
    "stable_u64",
]
