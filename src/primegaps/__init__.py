"""Desk-scale empirical toolkit for the statistics of prime gaps.

Segmented sieving, normalized-gap and Poisson-interval statistics, the
Hardy-Littlewood singular series, Selberg-style sieve weights with their
quadratic forms and beta-integral asymptotics, and error-term scans for
primes in arithmetic progressions.
"""

__version__ = "0.1.0"

from .gaps import CramerConfig, cramer_simulate, gap_histogram
from .gpy import (
    build_weights,
    exact_double_count,
    gpy_ratio,
    gpy_ratio_general,
    mobius_log_identity,
    unfortunate_inequality,
)
from .polys import PolynomialSpec, RationalPoly
from .progressions import pi_ap
from .sieve import prime_count, sieve_range
from .tuples import OffsetTuple, gallagher_average, singular_series
