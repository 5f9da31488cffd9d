"""Selberg-style sieve weights and the two-primes detector machinery.

Weights lambda_d = mu(d) P(log(R/d)/log R) live on squarefree d <= R and
define the nonnegative detector

    a(n) = ( sum over d | (n+h_1)...(n+h_k), d <= R of lambda_d )^2.

Summed over n in [x, 2x], a(n) has the quadratic-form main term

    x * sum_{d1,d2 <= R} h([d1,d2]) lambda_d1 lambda_d2,

with h multiplicative, h(p) = nu_H(p)/p; restricting to n with n + h_j
prime takes h(p) = (nu_H(p) - 1)/(p - 1) and a factor x/log x.  Both forms
are evaluated through Selberg's diagonalization, as sums of squares
g(r) y_r^2.  Both have beta-integral asymptotics whose ratio, times
log R/log x, is the quantity that would exceed 1/k if bounded prime gaps
followed; that ratio and the strict inequality blocking improvement past
4/k are exact-rational and live in polys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from .errors import require
from .polys import PolynomialSpec, weighted_square_integral
from .sieve import factorize, iter_windows, prime_indicator, primes_upto
from .tuples import OffsetTuple, _nu_cached, singular_series


# ---------------------------------------------------------------------------
# multiplicative helpers

def mobius(d: int) -> int:
    """Moebius function: 0 on square divisors, else (-1)^(number of primes)."""
    require(d >= 1, "d must be positive")
    out = 1
    for _, e in factorize(d):
        if e > 1:
            return 0
        out = -out
    return out


def mobius_log_identity(m: int, k: int) -> float:
    """Exact evaluation of sum over d | m of mu(d) (log(m/d))^k.

    Vanishes when m has more than k distinct prime factors; equals
    k! log(p_1)...log(p_k) when m is a squarefree product of k primes.
    """
    require(m >= 1, "m must be positive")
    require(k >= 1, "k must be at least 1")
    primes = [p for p, _ in factorize(m)]
    terms = []
    for r in range(len(primes) + 1):
        sign = -1.0 if r % 2 else 1.0
        for subset in combinations(primes, r):
            d = math.prod(subset)
            terms.append(sign * math.log(m / d) ** k)
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class WeightScheme:
    """Weights lambda_d on squarefree d <= R; zero elsewhere.

    lam holds only the squarefree support, in ascending d; every other d
    has lambda_d = 0, matching mu(d) = 0 and the cutoff at R.
    """

    R: int
    lam: dict[int, float]
    P: PolynomialSpec


def build_weights(P: PolynomialSpec, R: int) -> WeightScheme:
    """Populate lambda_d = mu(d) P(log(R/d)/log R) for squarefree d <= R.

    lambda_1 = P(1) = 1 exactly; d = R lands on P(0) = 0.  PolynomialSpec
    already enforces P(1) = 1 and the vanishing order, so an invalid
    polynomial never reaches this point.
    """
    require(R >= 1, "R must be at least 1")
    lam: dict[int, float] = {1: 1.0}
    if R >= 2:
        log_r = math.log(R)
        poly = P.poly
        for d in range(2, R + 1):
            mu = mobius(d)
            if mu:
                y = math.log(R / d) / log_r
                lam[d] = mu * poly(y)
    return WeightScheme(R=R, lam=lam, P=P)


# ---------------------------------------------------------------------------
# quadratic forms

@dataclass(frozen=True)
class FormEvaluation:
    """One sieve-sum evaluated three ways.

    direct_sum runs over every integer n in [x, 2x] (inclusive), or for
    the numerator (j set) over those with n + h_j prime;
    form_value is the quadratic-form main term; asymptotic is the
    beta-integral prediction (NaN when R < 2, and for the numerator form
    when P.k < 2).
    The three agree only up to the error terms being studied; none is
    substituted for another.
    """

    direct_sum: float
    form_value: float
    asymptotic: float
    j: int | None = None


def _divisor_residues(d: int, H: OffsetTuple) -> np.ndarray:
    """Residues r mod d with d | (r+h_1)...(r+h_k)."""
    r = np.arange(d, dtype=np.int64)
    prodmod = np.ones(d, dtype=np.int64)
    for h in H.offsets:
        prodmod = (prodmod * ((r + h) % d)) % d
    return np.flatnonzero(prodmod == 0)


# A weight profile block holds at most this many float64s (1 MiB): the
# block stays in cache across every divisor.
_PROFILE_BLOCK = 1 << 17


def _weight_profile(w: WeightScheme, H: OffsetTuple, x: int) -> Iterator[np.ndarray]:
    """S[n - x] = sum of lambda_d over d dividing (n+h_1)...(n+h_k), in
    consecutive new arrays of _PROFILE_BLOCK entries (the last may be
    shorter) covering [x, 2x].

    Each n lies in one class mod d, so it receives lambda_d at most once
    per d, in ascending d within every block: the same float sum as the
    per-n reference detector_a in tests/test_gpy.py."""
    # d = 1 heads the support and divides every product, and 0.0 +
    # lambda_1 is lambda_1, so each block starts out filled with it
    adds = [
        (d, w.lam[d], (r - x) % d)
        for d in sorted(w.lam)[1:]
        for r in _divisor_residues(d, H).tolist()
    ]
    for lo in range(0, x + 1, _PROFILE_BLOCK):
        block = np.full(min(_PROFILE_BLOCK, x + 1 - lo), w.lam[1])
        for d, lam, first in adds:
            block[(first - lo) % d :: d] += lam
        yield block


def _odd_prime_flags(lo: int, n: int) -> Iterator[np.ndarray]:
    """Primality of the odd integers in each consecutive run of
    _PROFILE_BLOCK integers (the last may be shorter) of [lo, lo + n), in
    order.  A sieve window holds 16 whole runs, each an even offset into
    it, so every run's flags are a slice of its window's."""
    for seg in iter_windows(lo, lo + n):
        for b in range(0, seg.hi - seg.lo, _PROFILE_BLOCK):
            yield seg.odd[b // 2 : (b + _PROFILE_BLOCK) // 2]


def require_level(R: int, x: int) -> None:
    """Refuse a sieve level with R^2 >= x."""
    require(R * R < x, f"level-too-large: need R^2 < x, got R={R}, x={x}")


def _diagonal_form(lam: dict, H: OffsetTuple, s: int, total=math.fsum):
    """sum over d1, d2 of lambda_d1 lambda_d2 h([d1, d2]), for h
    multiplicative with h(p) = (nu_H(p) - s)/(p - s): the denominator form
    for s = 0 and the numerator form for s = 1.

    Selberg's diagonalization: h([d1, d2]) = h(d1) h(d2)/h((d1, d2)), and
    1/h(m) = sum over r | m of g(r) with g multiplicative, g(p) = 1/h(p) - 1
    = (p - nu_H(p))/(nu_H(p) - s).  So the form is sum over r of g(r) y_r^2,
    y_r = sum over r | d of lambda_d h(d), a sum of nonnegative terms in
    O(R log R) steps.  A d with h(d) = 0 (p = 2 for {0, 2} and s = 1)
    adds nothing to either side, so no r with h(r) = 0 is summed.  lam
    maps the squarefree d <= R to their weights, floats or Fractions;
    total adds the terms, so sum with Fractions makes the form exact.
    """
    R = max(lam)
    a, b, c = ([1] * (R + 1) for _ in range(3))  # h = a/b and g = c/a
    for p in primes_upto(R).tolist():
        v = _nu_cached(H.offsets, p)
        for table, local in ((a, v - s), (b, p - s), (c, p - v)):
            table[p::p] = [m * local for m in table[p::p]]
    y = {
        r: total(lam[d] * a[d] / b[d] for d in range(r, R + 1, r) if d in lam)
        for r in lam
        if a[r]
    }
    return total(y_r * y_r * c[r] / a[r] for r, y_r in y.items())


def quadratic_forms(
    w: WeightScheme, H: OffsetTuple, x: int, j: int = 1
) -> tuple[FormEvaluation, ...]:
    """Sums of a(n) over x <= n <= 2x, their quadratic forms and asymptotics.

    Returns (denominator,) for k = 1 and (denominator, numerator) for
    k >= 2, all from one pass over the weight profile.  The denominator
    runs over every n: form_value = x * sum h([d1,d2]) lambda_d1 lambda_d2
    with h(p) = nu_H(p)/p, and the asymptotic is x/(log R)^k * S(H) *
    integral_0^1 y^(k-1)/(k-1)! * P^(k)(1-y)^2 dy.  The numerator runs
    over n with n + h_j prime (j is 1-based): form_value = x/log x * sum
    h([d1,d2]) lambda_d1 lambda_d2 with h(p) = (nu_H(p) - 1)/(p - 1), and
    the asymptotic is x/((log x)(log R)^(k-1)) * S(H) * integral_0^1
    y^(k-2)/(k-2)! P^(k-1)(1-y)^2 dy.

    Each form_value is evaluated as a sum of squares by Selberg's
    diagonalization (_diagonal_form).  Each direct sum reduces every
    profile block with np.add.reduce and adds the block sums with
    math.fsum, so the numerator range is sieved once, one 1 MiB window at
    a time.
    """
    require(x >= 4, "x too small")
    require(1 <= j <= H.k, f"j must be in [1, {H.k}]")
    require_level(w.R, x)
    den, num = [], []
    if H.k >= 2:
        # lo > 2, so every prime n + h_j in range is odd
        lo = x + H.offsets[j - 1]
        flags = _odd_prime_flags(lo, x + 1)
        odd_at = 1 - lo % 2  # block offset of the first odd n + h_j
    for block in _weight_profile(w, H, x):
        np.square(block, out=block)
        den.append(np.add.reduce(block))
        if H.k >= 2:
            num.append(np.add.reduce(block[odd_at + 2 * np.flatnonzero(next(flags))]))
    # S(H) once for both forms, and not at all when R < 2 leaves them no
    # asymptotic: a wide H at its default level is costly to evaluate
    ss = singular_series(H).value if w.R >= 2 else math.nan
    forms = (FormEvaluation(
        math.fsum(den), x * _diagonal_form(w.lam, H, 0), _asymptotic(w, ss, x, 0)),)
    if H.k >= 2:
        form_value = x / math.log(x) * _diagonal_form(w.lam, H, 1)
        forms += (FormEvaluation(math.fsum(num), form_value, _asymptotic(w, ss, x, 1), j=j),)
    return forms


def _asymptotic(w: WeightScheme, ss: float, x: int, s: int) -> float:
    """Beta-integral main term of the denominator (s = 0) or numerator
    (s = 1) form, x/((log x)^s (log R)^m) * S(H) * integral_0^1
    y^(m-1)/(m-1)! P^(m)(1-y)^2 dy with m = k - s, given ss = S(H)."""
    if w.R < 2 or w.P.k <= s:
        return math.nan
    m = w.P.k - s
    integral = weighted_square_integral(w.P.poly.deriv(m), m - 1)
    log_x_s = math.log(x) if s else 1.0
    return x / (log_x_s * math.log(w.R) ** m) * ss * float(integral)


# ---------------------------------------------------------------------------
# exact double-counting oracle

class DoubleCount(NamedTuple):
    per_n: Fraction
    pair: Fraction


def exact_double_count(
    w: WeightScheme, H: OffsetTuple, x: int, j: int | None = None
) -> DoubleCount:
    """Both routes to sum a(n), in exact rational arithmetic.

    The float weights are lifted exactly to rationals (every double is a
    rational), making the identity

      sum_n (sum_{d | prod} lambda_d)^2
        = sum_{d1,d2} lambda_d1 lambda_d2 #{n : [d1,d2] | prod(n)}

    an exact equality of fractions.  per_n enumerates divisors of each n;
    pair counts arithmetic progressions per (d1, d2).  With j set (1-based)
    both sides restrict to n with n + h_j prime.
    """
    require(x >= 4, "x too small")
    require_level(w.R, x)
    lamF = {d: Fraction(v) for d, v in sorted(w.lam.items())}
    ds = sorted(lamF)
    pmask = None
    h_j = 0
    if j is not None:
        require(1 <= j <= H.k, f"j must be in [1, {H.k}]")
        h_j = H.offsets[j - 1]
        pmask = prime_indicator(x + h_j, 2 * x + h_j + 1)

    # route 1: per-n divisor enumeration, counted per divisor pattern
    pattern_counts: dict[int, int] = {}
    for n in range(x, 2 * x + 1):
        if pmask is not None and not pmask[n - x]:
            continue
        prod = 1
        for h in H.offsets:
            prod *= n + h
        key = 0
        for i, d in enumerate(ds):
            if prod % d == 0:
                key |= 1 << i
        pattern_counts[key] = pattern_counts.get(key, 0) + 1
    per_n = Fraction(0)
    for key, cnt in sorted(pattern_counts.items()):
        s = sum((lamF[d] for i, d in enumerate(ds) if key >> i & 1), Fraction(0))
        per_n += cnt * s * s

    # route 2: pair sum with exact progression counts
    pair = Fraction(0)
    for d1 in ds:
        for d2 in ds:
            D = d1 * d2 // math.gcd(d1, d2)
            count = 0
            for r in _divisor_residues(D, H).tolist():
                if pmask is None:
                    count += (2 * x - r) // D - (x - 1 - r) // D
                else:
                    count += int(pmask[(r - x) % D :: D].sum())
            pair += lamF[d1] * lamF[d2] * count
    return DoubleCount(per_n, pair)
