"""Desk-scale empirical toolkit for the statistics of prime gaps.

Segmented sieving, normalized-gap and Poisson-interval statistics, the
Hardy-Littlewood singular series, Selberg-style sieve weights with their
quadratic forms and beta-integral asymptotics, and error-term scans for
primes in arithmetic progressions.

The names below are loaded on first use (PEP 562), so importing the
package, or a module that needs no arrays, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_OWNERS = {
    "CramerConfig": "gaps",
    "cramer_simulate": "gaps",
    "gap_histogram": "gaps",
    "build_weights": "gpy",
    "exact_double_count": "gpy",
    "mobius_log_identity": "gpy",
    "PolynomialSpec": "polys",
    "RationalPoly": "polys",
    "gpy_ratio": "polys",
    "gpy_ratio_general": "polys",
    "unfortunate_inequality": "polys",
    "pi_ap": "progressions",
    "prime_count": "sieve",
    "sieve_range": "sieve",
    "OffsetTuple": "tuples",
    "gallagher_average": "tuples",
    "singular_series": "tuples",
}

__all__ = sorted(_OWNERS)


def __getattr__(name):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{owner}"), name)


def __dir__():
    return __all__
