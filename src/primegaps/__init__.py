"""Desk-scale empirical toolkit for the statistics of prime gaps.

Segmented sieving, normalized-gap and Poisson-interval statistics, the
Hardy-Littlewood singular series, Selberg-style sieve weights with their
quadratic forms and beta-integral asymptotics, and error-term scans for
primes in arithmetic progressions.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    EmptyRangeError,
    LevelTooLargeError,
    PreconditionError,
    RangeTooLargeError,
)
from .gaps import (
    CramerConfig,
    CramerResult,
    GapHistogram,
    IntervalCountStats,
    LongGapReport,
    cramer_simulate,
    exponential_bin_mass,
    gap_histogram,
    interval_count_distribution,
    long_gap_construct,
    poisson_unit_pmf,
    rankin_bound,
)
from .gpy import (
    FormEvaluation,
    WeightScheme,
    best_power_r,
    build_weights,
    denominator_form,
    exact_double_count,
    f_of,
    g_of,
    gpy_ratio,
    gpy_ratio_general,
    mobius,
    mobius_log_identity,
    numerator_form,
    unfortunate_inequality,
)
from .polys import PolynomialSpec, RationalPoly, weighted_square_integral
from .progressions import (
    APErrorRecord,
    BVScanResult,
    bv_scan,
    error_table,
    euler_phi,
    log_integral,
    montgomery_ratios,
    pi_ap,
)
from .sieve import (
    PrimeGap,
    SieveSegment,
    factorize,
    is_prime,
    iter_gaps,
    iter_segments,
    next_prime,
    prime_count,
    prime_indicator,
    primes_between,
    primes_upto,
    sieve_range,
)
from .tuples import (
    HLCount,
    OffsetTuple,
    SingularSeriesValue,
    gallagher_average,
    hl_count,
    is_admissible,
    nu,
    singular_series,
)
