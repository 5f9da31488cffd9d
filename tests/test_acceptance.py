"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check carries its stated tolerance and wall-clock budget.
"""

import contextlib
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from primegaps import (
    CramerConfig,
    OffsetTuple,
    PolynomialSpec,
    RationalPoly,
    build_weights,
    cramer_simulate,
    exact_double_count,
    gallagher_average,
    gap_histogram,
    gpy_ratio,
    gpy_ratio_general,
    mobius_log_identity,
    pi_ap,
    prime_count,
    sieve_range,
    singular_series,
    unfortunate_inequality,
)
from primegaps.gaps import interval_counts_from_indicator, poisson_unit_pmf
from primegaps.sieve import prime_indicator
from primegaps.gpy import _diagonal_form, quadratic_forms
from primegaps.cli import main as cli_main

from conftest import naive_factorize, naive_sieve_count, trial_division_primes
from test_cli import ALL_SUBCOMMANDS, FAST_ARGS


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_singular_series():
    with criterion(1, "singular series of {0,2} at L=1e5 is 1.3203 +- 5e-4", 1.0):
        value = singular_series(OffsetTuple((0, 2)), 10**5).value
        assert abs(value - 1.3203) <= 5e-4


def test_criterion_2_gpy_closed_form():
    with criterion(2, "detection-ratio closed form and general agreement", 1.0):
        assert gpy_ratio(7, 1, 0.5) == 0.15
        assert 0.15 == float(Fraction(21, 140))
        for k in range(2, 21):
            for r in range(0, 11):
                closed = gpy_ratio(k, r, 0.5)
                general = gpy_ratio_general(PolynomialSpec.power(k, r), k, 0.5)
                assert abs(general - closed) <= 1e-9 * closed, (k, r)


def test_criterion_3_unfortunate_inequality():
    with criterion(3, "the 4/k inequality holds for y^m, k in [2,20], m in [1,10]", 1.0):
        for k in range(2, 21):
            for m in range(1, 11):
                res = unfortunate_inequality(RationalPoly([0] * m + [1]), k)
                assert res.holds, (k, m)


def test_criterion_4_mobius_identity():
    with criterion(4, "divisor-sum identity for all m <= 1e4, k in {1,2,3}", 5.0):
        for m in range(1, 10**4 + 1):
            fac = naive_factorize(m)
            omega = len(fac)
            squarefree = all(e == 1 for _, e in fac)
            for k in (1, 2, 3):
                value = mobius_log_identity(m, k)
                scale = max(1.0, 2.0**omega * math.log(max(m, 2)) ** k)
                if omega > k:
                    assert abs(value) <= 1e-9 * scale, (m, k)
                elif squarefree and omega == k:
                    expected = math.factorial(k) * math.prod(
                        math.log(p) for p, _ in fac
                    )
                    assert abs(value - expected) <= 1e-9 * expected, (m, k)


def test_criterion_5_sieve_correctness():
    with criterion(5, "sieve vs trial division, naive pi(1e6), segment identity", 10.0):
        seg = sieve_range(0, 10**5)
        assert list(seg.primes()) == trial_division_primes(0, 10**5)
        assert prime_count(10**6) == naive_sieve_count(10**6)
        mono = prime_indicator(0, 10**7)
        pieces = [
            sieve_range(lo, min(lo + 2**20, 10**7)).bits
            for lo in range(0, 10**7, 2**20)
        ]
        assert np.array_equal(mono, np.concatenate(pieces))


def test_criterion_6_exact_double_counting():
    with criterion(6, "per-n and pair sums agree exactly in rationals", 10.0):
        H = OffsetTuple((0, 2))
        w = build_weights(PolynomialSpec.power(2, 0), 9)
        den = exact_double_count(w, H, 10**4)
        assert den.per_n == den.pair
        num = exact_double_count(w, H, 10**4, j=1)
        assert num.per_n == num.pair


def pair_sum_referee(lam, H, s):
    """sum of lambda_d1 lambda_d2 A(D)/B(D) over D = [d1, d2], exactly, for
    A(D) = prod over p | D of (nu_H(p) - s) and B(D) = D (s = 0) or phi(D)
    (s = 1): the quadratic form summed over every pair of the support.

    The support holds every squarefree d <= R, so e = d2 / gcd(d1, d2) is
    in it and coprime to d1, and A(D)/B(D) = A(d1)A(e)/(B(d1)B(e))."""
    def local(d):
        A = B = 1
        for p, _ in naive_factorize(d):
            A *= len({h % p for h in H.offsets}) - s
            B *= p - s
        return Fraction(A, B)

    h = {d: local(d) for d in lam}
    return sum(
        l1 * l2 * h[d1] * h[d2 // math.gcd(d1, d2)]
        for d1, l1 in lam.items()
        for d2, l2 in lam.items()
    )


@pytest.mark.parametrize(
    "offsets, r, R", [((0, 2), 1, 200), ((0, 2, 6), 1, 150), ((0, 4, 6, 10), 2, 120)]
)
def test_criterion_6_diagonal_form_equals_pair_sum(offsets, r, R):
    description = f"Selberg's diagonal form equals the pair sum exactly, {offsets} at R={R}"
    with criterion(6, description, 10.0):
        H = OffsetTuple(offsets)
        w = build_weights(PolynomialSpec.power(H.k, r), R)
        lam = {d: Fraction(v) for d, v in w.lam.items()}
        x = 10**5
        scale = (x, x / math.log(x))
        for s, ev in enumerate(quadratic_forms(w, H, x)):
            referee = pair_sum_referee(lam, H, s)
            assert _diagonal_form(lam, H, s, total=sum) == referee
            assert ev.form_value == pytest.approx(scale[s] * float(referee), rel=1e-13, abs=0)


def test_criterion_7_partition_identity():
    with criterion(7, "reduced classes plus primes dividing q recover pi(x)", 10.0):
        for x in (10**3, 10**4, 10**5):
            pi_x = prime_count(x)
            for q in range(1, 101):
                reduced = sum(
                    pi_ap(x, q, a) for a in range(q) if math.gcd(a, q) == 1
                )
                dividing = sum(1 for p, _ in naive_factorize(q) if p <= x)
                assert reduced + dividing == pi_x, (x, q)


def test_criterion_8_poisson_statistics():
    with criterion(8, "gap mass near 1 - 1/e and simulated interval counts Poisson", 60.0):
        hist = gap_histogram(3, 10**7)
        mass = hist.mass_below(1.0)
        assert abs(mass - (1 - math.exp(-1))) <= 0.06
        sim = cramer_simulate(CramerConfig(n_max=10**7, seed=0))
        assert abs(sim.simulated_count - sim.expected_count) <= 4 * sim.count_sigma
        n_samples = 5000
        x = (10**7 - 40) // 2
        stats = interval_counts_from_indicator(sim.indicators, x, n_samples, seed=0)
        for k in (0, 1, 2, 3):
            pred = poisson_unit_pmf(k)
            sigma = math.sqrt(pred * (1 - pred) / n_samples)
            emp = stats.fractions.get(k, 0.0)
            assert abs(emp - pred) <= 4 * sigma, (k, emp, pred)


def test_criterion_9_gallagher_average(baseline):
    with criterion(9, "singular-series average over pairs in [1,1000] near 1", 60.0):
        res = gallagher_average(2, 1000, 10**4)
        assert 0.9 <= res.ratio <= 1.1
        baseline.check("acceptance_gallagher_k2_h1000_L1e4", res.ratio, rel_tol=1e-9)


def _run_cli_text(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0, (argv, buf.getvalue())
    return buf.getvalue()


def test_criterion_10_cli_determinism():
    with criterion(10, "every subcommand is byte-identical across reruns and threads", 120.0):
        for cmd in ALL_SUBCOMMANDS:
            for fmt in ("csv", "json"):
                argv = [cmd, *FAST_ARGS[cmd], "--format", fmt]
                first = _run_cli_text(argv + ["--threads", "1"])
                second = _run_cli_text(argv + ["--threads", "1"])
                other_threads = _run_cli_text(argv + ["--threads", "3"])
                assert first == second == other_threads, (cmd, fmt)
