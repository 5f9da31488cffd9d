import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from primegaps import (
    OffsetTuple,
    PolynomialSpec,
    RationalPoly,
    build_weights,
    exact_double_count,
    gpy_ratio,
    gpy_ratio_general,
    mobius_log_identity,
    unfortunate_inequality,
)
from primegaps import cli, gpy, sieve
from primegaps.errors import PreconditionError
from primegaps.gpy import (
    _PROFILE_BLOCK,
    _divisor_residues,
    _weight_profile,
    mobius,
    quadratic_forms,
)
from primegaps.polys import best_power_r, weighted_square_integral
from primegaps.sieve import iter_windows, prime_indicator

from conftest import naive_factorize, peak_rss_kib


def detector_a(n, H, w):
    """Reference a(n): the squared sum of lambda_d over d | (n+h_1)...(n+h_k).

    Only the squarefree d <= R in the scheme's support can contribute,
    added in ascending d.  When n > R and every n + h_j is prime, only
    d = 1 survives and a(n) = 1.
    """
    prod = math.prod(n + h for h in H.offsets)
    s = sum(lam for d, lam in sorted(w.lam.items()) if prod % d == 0)
    return s * s


def gpy_ratio_quadrature(P, k, theta):
    """Gauss-Legendre evaluation of the ratio gpy_ratio_general computes
    exactly; 80 nodes make the rule exact (to rounding) for every degree
    used here."""
    nodes, weights = np.polynomial.legendre.leggauss(80)
    y = 0.5 * (nodes + 1.0)
    wts = 0.5 * weights

    def integral(Q, a):
        vals = np.array([float(Q(1.0 - yi)) for yi in y])
        return float((wts * y**a * vals * vals).sum() / math.factorial(a))

    num = integral(P.poly.deriv(k - 1), k - 2)
    den = integral(P.poly.deriv(k), k - 1)
    return theta * num / den


def naive_mobius(n: int) -> int:
    out = 1
    for _, e in naive_factorize(n):
        if e > 1:
            return 0
        out = -out
    return out


# ---------------------------------------------------------------------------
# multiplicative functions

def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0


def test_mobius_against_naive():
    for n in range(1, 3000):
        assert mobius(n) == naive_mobius(n)


def test_mobius_log_identity_examples():
    assert mobius_log_identity(6, 2) == pytest.approx(2 * math.log(2) * math.log(3), rel=1e-12)
    assert mobius_log_identity(30, 2) == pytest.approx(0.0, abs=1e-10)
    for p in (2, 7, 97):
        assert mobius_log_identity(p, 1) == pytest.approx(math.log(p), rel=1e-12)


def test_mobius_log_identity_square_divisors():
    # m = 12 has two distinct primes; for k = 1 the divisor sum vanishes
    assert mobius_log_identity(12, 1) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# weights

def test_lambda_1_is_one():
    for spec in (PolynomialSpec.power(2, 0), PolynomialSpec.power(3, 2)):
        w = build_weights(spec, 25)
        assert w.lam[1] == 1.0


def test_lambda_vanishes_off_support():
    w = build_weights(PolynomialSpec.power(2, 0), 10)
    assert 4 not in w.lam       # mu(4) = 0
    assert 11 not in w.lam      # beyond R
    assert 12 not in w.lam


def test_lambda_prime_closed_form():
    # P(y) = y^k gives lambda_p = -(log(R/p)/log R)^k at primes
    k, R = 3, 50
    w = build_weights(PolynomialSpec.power(k, 0), R)
    for p in (2, 3, 5, 7, 11, 47):
        expected = -((math.log(R / p) / math.log(R)) ** k)
        assert w.lam[p] == pytest.approx(expected, rel=1e-12)


def test_weights_R1():
    w = build_weights(PolynomialSpec.power(2, 0), 1)
    assert w.lam == {1: 1.0}


# ---------------------------------------------------------------------------
# detector

def _oracle_detector(n, H, w):
    """Second route: enumerate squarefree divisors from the factorization."""
    prod = math.prod(n + h for h in H.offsets)
    primes = [p for p, _ in naive_factorize(prod)]
    total = 0.0
    for r in range(len(primes) + 1):
        for sub in combinations(primes, r):
            d = math.prod(sub)
            total += w.lam.get(d, 0.0)
    return total * total


def test_detector_nonnegative_and_matches_oracle():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 0), 9)
    for n in range(1, 200):
        a = detector_a(n, H, w)
        assert a >= 0.0
        assert a == pytest.approx(_oracle_detector(n, H, w), rel=1e-12, abs=1e-15)


def test_detector_one_on_prime_tuples_beyond_R():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 1), 9)
    for n in (11, 17, 29, 41, 101, 107):   # n, n+2 both prime, n > R
        assert detector_a(n, H, w) == 1.0


def test_detector_extended_tuple_invariance():
    # appending a prime offset ell with n + ell prime and beyond R leaves
    # a(n) unchanged: the new divisors all exceed R
    w = build_weights(PolynomialSpec.power(2, 0), 9)
    cases = [(15, (0, 2), 4), (33, (0, 2), 4), (95, (0, 2), 6), (21, (0, 2), 10)]
    for n, offs, ell in cases:
        assert n + ell > 9 and naive_factorize(n + ell)[0][0] == n + ell
        base = detector_a(n, OffsetTuple(offs), w)
        extended = detector_a(n, OffsetTuple(offs + (ell,)), w)
        assert base == extended


# ---------------------------------------------------------------------------
# the two quadratic forms

def test_degenerate_weights_counts_integers():
    # lambda = (1, 0, 0, ...): a(n) = 1, so the direct sum counts [x, 2x]
    w = build_weights(PolynomialSpec.power(2, 0), 1)
    H = OffsetTuple((0, 2))
    x = 500
    res, _ = quadratic_forms(w, H, x)
    assert res.direct_sum == x + 1
    assert res.form_value == x
    assert math.isnan(res.asymptotic)


def test_exact_double_count_small():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 0), 7)
    dc = exact_double_count(w, H, 100)
    assert dc.per_n == dc.pair
    dcn = exact_double_count(w, H, 100, j=2)
    assert dcn.per_n == dcn.pair


def test_forms_match_exact_routes_in_float():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 0), 9)
    x = 10**4
    dc = exact_double_count(w, H, x)
    for j in (1, 2):
        den, num = quadratic_forms(w, H, x, j)
        assert den.direct_sum == pytest.approx(float(dc.per_n), rel=1e-9)
        dcn = exact_double_count(w, H, x, j=j)
        assert dcn.per_n == dcn.pair
        assert num.direct_sum == pytest.approx(float(dcn.per_n), rel=1e-9)


def whole_profile(w, H, x):
    """The streamed weight profile's blocks, concatenated."""
    return np.concatenate(list(_weight_profile(w, H, x)))


@pytest.mark.parametrize(
    "offsets, r, R, x",
    [((0, 2), 0, 9, 5000), ((0, 2, 6), 1, 13, 3001), ((0, 4, 6, 10), 2, 11, 2003)],
)
def test_weight_profile_squares_equal_detector(offsets, r, R, x):
    # bit for bit: P(y) = y^2, y^4, y^6; each lambda_d added once, ascending d
    H = OffsetTuple(offsets)
    w = build_weights(PolynomialSpec.power(H.k, r), R)
    profile = whole_profile(w, H, x)
    expected = np.array([detector_a(n, H, w) for n in range(x, 2 * x + 1)])
    assert np.array_equal(profile**2, expected)


def unblocked_profile(w, H, x):
    """Reference profile: one strided add over all of [x, 2x] per (d, r)."""
    S = np.zeros(x + 1, dtype=np.float64)
    for d in sorted(w.lam):
        for r in _divisor_residues(d, H).tolist():
            S[(r - x) % d :: d] += w.lam[d]
    return S


@pytest.mark.parametrize("offsets", [(0, 2), (0, 4, 6), (0, 2, 6, 8, 12)])
@pytest.mark.parametrize("r", [0, 1])
def test_blocked_profile_matches_unblocked(offsets, r):
    H = OffsetTuple(offsets)
    B = _PROFILE_BLOCK
    for x in (B - 1, B, B + 1, 3 * B + 5):
        w = build_weights(PolynomialSpec.power(H.k, r), math.isqrt(math.isqrt(x)))
        got = whole_profile(w, H, x)
        assert got.tobytes() == unblocked_profile(w, H, x).tobytes(), x


@pytest.mark.parametrize("offsets", ["0", "0,2", "0,4,6"])
def test_gpy_experiment_builds_one_profile(monkeypatch, offsets):
    calls, entries = [], []

    def counted(*args):
        calls.append(args[2])
        for block in _weight_profile(*args):
            entries.append(block.size)
            yield block

    monkeypatch.setattr(gpy, "_weight_profile", counted)
    assert cli.main(["gpy-experiment", "--offsets", offsets, "--x", "20000"]) == 0
    assert calls == [20000] and sum(entries) == 20001


def test_gpy_experiment_peak_is_flat_in_x():
    # a whole-array profile would add 8 bytes per unit of x: 48 MB at 8e6;
    # 4e7 spans 20 sieve windows of 2^21 integers, where one 8 MiB window of
    # odd flags (and seam joins) once raised the peak about 15 MB over that
    # of 2e6
    small, large = (peak_rss_kib("gpy-experiment", "--offsets", "0,2", "--x", x)
                    for x in ("2e6", "4e7"))
    assert abs(large - small) < 8 * 1024, (small, large)


B = _PROFILE_BLOCK


def assert_close_sum(got, terms):
    """got is the sum of the nonnegative terms up to the rounding of
    np.add.reduce over each profile block and of math.fsum over the block
    sums: numpy's pairwise summation adds a block of at most 2^17 terms
    in fewer than 30 roundings on any path (16 in each of 8 accumulators,
    3 to join them, one per halving above 128 terms), and fsum rounds
    once, so the relative error stays under 40 unit roundoffs.  The 12
    significant digits the CLI prints must agree as well."""
    exact = math.fsum(terms)
    assert abs(got - exact) <= 40 * 2.0**-53 * exact
    assert cli.fmt_value(got) == cli.fmt_value(exact)


@pytest.mark.parametrize("offsets, r", [((0, 2), 0), ((0, 4, 6), 1)])
@pytest.mark.parametrize("x", [B - 1, 3 * B + 4, 2_300_001])
def test_streamed_forms_equal_whole_array_sums(offsets, r, x, monkeypatch):
    # x + h_j both odd and even; with the patched sizes, each sieve window
    # holds B integers, 16 profile blocks, and 2_300_001 spans 18 of them,
    # the last one short
    H = OffsetTuple(offsets)
    w = build_weights(PolynomialSpec.power(H.k, r), math.isqrt(math.isqrt(x)))
    sq = unblocked_profile(w, H, x) ** 2
    primes = [prime_indicator(x + h, 2 * x + h + 1) for h in H.offsets]
    monkeypatch.setattr(gpy, "_PROFILE_BLOCK", B // 16)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", B)
    for j in range(1, H.k + 1):
        den, num = quadratic_forms(w, H, x, j)
        for got, terms in ((den.direct_sum, sq), (num.direct_sum, sq[primes[j - 1]])):
            assert_close_sum(got, terms)


@pytest.mark.parametrize("offsets", [(0,), (0, 2), (0, 4, 6)])
@pytest.mark.parametrize("x", [5000, 16 * B + 3])
def test_quadratic_forms_sieve_the_numerator_range_once(offsets, x, monkeypatch):
    # the larger x spans nine windows of the patched size, 2B each
    spans = []

    def recording(lo, hi, overlap=0):
        for seg in iter_windows(lo, hi, overlap):
            spans.append((seg.lo, seg.hi))
            yield seg

    H = OffsetTuple(offsets)
    w = build_weights(PolynomialSpec.power(H.k, 0), 8)
    j = H.k
    monkeypatch.setattr(gpy, "_PROFILE_BLOCK", B // 8)
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 2 * B)
    monkeypatch.setattr(gpy, "iter_windows", recording)
    quadratic_forms(w, H, x, j)
    if H.k == 1:
        assert spans == []
    else:
        h = H.offsets[j - 1]
        assert sum(hi - lo for lo, hi in spans) == x + 1
        assert spans[0][0] == x + h and spans[-1][1] == 2 * x + h + 1
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_numerator_below_denominator():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 1), 9)
    x = 2000
    den, num = quadratic_forms(w, H, x)
    assert 0.0 <= num.direct_sum <= den.direct_sum


def test_level_too_large():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 0), 40)
    with pytest.raises(PreconditionError, match=r"level-too-large: need R\^2 < x, got R=40, x=1600"):
        quadratic_forms(w, H, 1600)


def test_numerator_j_validation():
    H = OffsetTuple((0, 2))
    w = build_weights(PolynomialSpec.power(2, 0), 9)
    for j in (0, 3):
        with pytest.raises(PreconditionError):
            quadratic_forms(w, H, 10**4, j)
    # k = 1 has no numerator, but j is still checked
    for j in (0, 2):
        with pytest.raises(PreconditionError):
            quadratic_forms(w, OffsetTuple((0,)), 10**4, j)


# ---------------------------------------------------------------------------
# beta-integral values

def test_denominator_integral_closed_form():
    # for P(y) = y^k: int y^(k-1)/(k-1)! (P^(k)(1-y))^2 dy = k!
    for k in range(2, 9):
        P = PolynomialSpec.power(k, 0)
        exact = weighted_square_integral(P.poly.deriv(k), k - 1)
        assert exact == math.factorial(k)


def test_numerator_integral_k2_example():
    # P(y) = y^2, k = 2: int (2(1-y))^2 dy = 4/3
    P = PolynomialSpec.power(2, 0)
    exact = weighted_square_integral(P.poly.deriv(1), 0)
    assert exact == Fraction(4, 3)


def test_quadrature_cross_check():
    for k, r in ((2, 0), (3, 1), (5, 2), (7, 1)):
        P = PolynomialSpec.power(k, r)
        assert gpy_ratio_quadrature(P, k, 0.25) == pytest.approx(
            gpy_ratio_general(P, k, 0.25), rel=1e-10
        )


# ---------------------------------------------------------------------------
# the ratio

def test_ratio_headline_value():
    assert gpy_ratio(7, 1, 0.5) == 0.15
    assert gpy_ratio(7, 1, 0.5) == pytest.approx(1.05 / 7)


def test_ratio_r0_below_1_over_k():
    for k in range(2, 30):
        for theta in (0.1, 0.25, 0.49):
            assert gpy_ratio(k, 0, theta) == pytest.approx(theta * 2 / (k + 1))
            assert gpy_ratio(k, 0, theta) < 1 / k


def test_ratio_validation():
    with pytest.raises(PreconditionError):
        gpy_ratio(1, 0, 0.25)
    with pytest.raises(PreconditionError):
        gpy_ratio(7, -1, 0.25)
    with pytest.raises(PreconditionError):
        gpy_ratio(7, 1, 0.6)


def test_best_r_near_half_sqrt_k():
    assert best_power_r(100) == 5          # sqrt(100)/2
    for k in (16, 36, 64, 144):
        assert abs(best_power_r(k) - math.sqrt(k) / 2) <= 1.0


def test_best_r_matches_exact_scan():
    # brute force over every r up to well past the maximizer near sqrt(k)/2
    for k in [*range(2, 2001), 11000, 40000, 10**6]:
        scan = range(2 * math.isqrt(k) + 3)
        best = max(scan, key=lambda r: Fraction(2 * (2 * r + 1), (r + 1) * (k + 2 * r + 1)))
        assert best_power_r(k) == best, k


def test_general_matches_closed_form():
    for k in range(2, 12):
        for r in range(0, 6):
            closed = gpy_ratio(k, r, 0.5)
            general = gpy_ratio_general(PolynomialSpec.power(k, r), k, 0.5)
            assert general == pytest.approx(closed, rel=1e-9)
            P = PolynomialSpec.power(k, r).poly
            num = weighted_square_integral(P.deriv(k - 1), k - 2)
            den = weighted_square_integral(P.deriv(k), k - 1)
            assert num / den == Fraction(2 * (2 * r + 1), (r + 1) * (k + 2 * r + 1))


def test_general_rejects_shallow_vanishing():
    P = PolynomialSpec.power(2, 0)
    with pytest.raises(PreconditionError):
        gpy_ratio_general(P, 3, 0.25)      # vanishing order 2 < k = 3


# ---------------------------------------------------------------------------
# the blocking inequality

def test_unfortunate_example():
    res = unfortunate_inequality(RationalPoly([0, 1]), 2)
    assert res.lhs == Fraction(1, 3)
    assert res.rhs == Fraction(1)
    assert res.holds


def test_unfortunate_scaling_invariance():
    Q = RationalPoly([0, 2, -1])
    base = unfortunate_inequality(Q, 4)
    scaled = unfortunate_inequality(RationalPoly(Fraction(7, 3) * c for c in Q.coeffs), 4)
    c2 = Fraction(7, 3) ** 2
    assert scaled.lhs == base.lhs * c2
    assert scaled.rhs == base.rhs * c2
    assert scaled.holds == base.holds


def test_unfortunate_validation():
    with pytest.raises(PreconditionError):
        unfortunate_inequality(RationalPoly([1, 1]), 2)   # Q(0) != 0
    with pytest.raises(PreconditionError):
        unfortunate_inequality(RationalPoly([]), 2)       # Q = 0
    with pytest.raises(PreconditionError):
        unfortunate_inequality(RationalPoly([0, 1]), 1)   # k < 2


def test_unfortunate_monomial_scan():
    for k in range(2, 21):
        for m in range(1, 11):
            res = unfortunate_inequality(RationalPoly([0] * m + [1]), k)
            assert res.holds, (k, m)


def test_barely_fail_margins():
    """theta = 1/4 keeps the ratio strictly under 1/k; the shortfall
    shrinks as k grows but more slowly than first hoped: the best monomial
    weight at k = 49 still sits 23.4% under 1/k, and the margin first
    drops below 15% at k = 141."""
    def monomial_max(k):
        return max(
            Fraction(1, 4) * Fraction(2 * (2 * r + 1), (r + 1) * (k + 2 * r + 1))
            for r in range(0, 121)
        )

    for k in (10, 49, 100, 141, 200, 400):
        best = monomial_max(k)
        assert best < Fraction(1, k)            # never reaches 1/k
        assert best < Fraction(1, k) * Fraction(4, 4)
    assert Fraction(1) - monomial_max(49) * 49 == Fraction(15, 64)   # delta(49) = 0.234
    assert Fraction(1) - monomial_max(140) * 140 > Fraction(15, 100)
    for k in (141, 200, 400):
        delta = Fraction(1) - monomial_max(k) * k
        assert delta <= Fraction(15, 100), k
