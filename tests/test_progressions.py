import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import (
    PreconditionError,
    bv_scan,
    error_table,
    euler_phi,
    log_integral,
    montgomery_ratios,
    pi_ap,
    prime_count,
)
from primegaps.progressions import bv_checkpoints
from primegaps.sieve import primes_upto

from conftest import simpson_log_integral, trial_division_primes


# ---------------------------------------------------------------------------
# logarithmic integral

def test_li_at_lower_limit():
    assert log_integral(2) == 0.0


def test_li_domain():
    with pytest.raises(PreconditionError):
        log_integral(1.9)


def test_li_100_against_simpson():
    coarse = simpson_log_integral(100.0, 2000)
    fine = simpson_log_integral(100.0, 4000)
    # halving the step confirms the oracle has converged
    assert abs(coarse - fine) < 1e-9
    assert log_integral(100) == pytest.approx(fine, abs=1e-8)
    assert log_integral(100) == pytest.approx(29.081, abs=1e-3)


def test_li_against_simpson_samples():
    for x in (10.0, 1000.0, 50_000.0):
        assert log_integral(x) == pytest.approx(simpson_log_integral(x, 6000), rel=1e-9)


def test_li_strictly_increasing():
    xs = np.geomspace(2.5, 1e10, 40)
    vals = [log_integral(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_li_derivative_matches_integrand():
    for x in (10.0, 1e3, 1e6):
        h = 1e-4 * x
        deriv = (log_integral(x + h) - log_integral(x - h)) / (2 * h)
        assert deriv == pytest.approx(1 / math.log(x), rel=1e-6)


def test_li_pnt_ratio_baseline(baseline):
    x = 1e8
    ratio = log_integral(x) * math.log(x) / x
    baseline.check("li_times_logx_over_x_1e8", ratio, rel_tol=1e-12)
    print(f"li(1e8) log(x)/x = {ratio:.6f}")


# ---------------------------------------------------------------------------
# totient

def test_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(2) == 1


def test_phi_primes():
    for p in primes_upto(10_000):
        assert euler_phi(int(p)) == int(p) - 1


@given(st.integers(min_value=1, max_value=5000))
def test_phi_counts_reduced_residues(q):
    assert euler_phi(q) == sum(1 for a in range(q) if math.gcd(a, q) == 1)


# ---------------------------------------------------------------------------
# primes in progressions

def test_pi_ap_examples():
    assert pi_ap(20, 4, 1) == 3            # 5, 13, 17
    assert pi_ap(100, 4, 2) == 1           # only p = 2
    assert pi_ap(100, 4, 0) == 0


def test_pi_ap_brute_force():
    for q in (1, 2, 3, 7, 10):
        for a in range(q):
            brute = sum(1 for p in trial_division_primes(2, 201) if p % q == a)
            assert pi_ap(200, q, a) == brute


def test_pi_ap_partitions_primes():
    for q in (1, 4, 9, 30):
        assert sum(pi_ap(10**4, q, a) for a in range(q)) == prime_count(10**4)


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=-200, max_value=200))
def test_pi_ap_canonicalizes(q, a):
    assert pi_ap(1000, q, a) == pi_ap(1000, q, a % q)


def test_partition_identity():
    """Reduced-class counts plus the primes dividing q recover pi(x)."""
    for x in (10**3, 10**4):
        pi_x = prime_count(x)
        for q in range(1, 101):
            table = error_table(x, q)
            reduced = sum(rec.count for rec in table.records)
            dividing = sum(1 for p in trial_division_primes(2, min(q, x) + 1) if q % p == 0)
            assert reduced + dividing == pi_x, (x, q)


def test_error_table_q1():
    table = error_table(10**4, 1)
    assert len(table.records) == 1
    rec = table.records[0]
    assert rec.count == prime_count(10**4)
    assert rec.error == pytest.approx(prime_count(10**4) - log_integral(10**4))
    assert table.max_abs_error == abs(rec.error)


def test_error_table_q4():
    x = 10**5
    table = error_table(x, 4)
    assert sorted(rec.a for rec in table.records) == [1, 3]
    total = sum(rec.count for rec in table.records) + pi_ap(x, 4, 2) + pi_ap(x, 4, 0)
    assert total == prime_count(x)
    assert all(math.gcd(rec.a, rec.q) == 1 for rec in table.records)


# ---------------------------------------------------------------------------
# averaged error scan

def test_bv_checkpoint_grid():
    cps = bv_checkpoints(1024, 16)
    assert cps[-1] == 1024.0
    assert len(cps) == 16
    ratios = cps[1:] / cps[:-1]
    assert np.allclose(ratios, 2 ** (1 / 8))


def test_bv_scan_q1_reduction():
    res = bv_scan(10**4, 1, 16)
    expected = max(
        abs(prime_count(int(y)) - log_integral(y)) for y in res.checkpoints
    )
    assert res.total == pytest.approx(expected)
    assert res.per_q[1] == res.total


def test_bv_scan_monotone_in_Q():
    totals = [bv_scan(10**4, Q, 16).total for Q in (1, 5, 20, 50)]
    assert all(a <= b for a, b in zip(totals, totals[1:]))


def test_bv_scan_deterministic():
    a = bv_scan(10**5, 50, 32)
    b = bv_scan(10**5, 50, 32)
    assert a == b


def test_bv_scan_counts_cross_check():
    # every modulus, q = 1 included, against direct per-checkpoint counts
    res = bv_scan(10**4, 12, 8)
    for q in range(1, 13):
        best, best_y = -1.0, None
        for y in res.checkpoints:
            li_y = log_integral(y)
            err = max(
                abs(pi_ap(int(y), q, a) - li_y / euler_phi(q))
                for a in range(q)
                if math.gcd(a, q) == 1
            )
            if err > best:
                best, best_y = err, y
        assert res.per_q[q] == best, q
        assert res.argmax_y[q] == best_y, q


def test_bv_scan_baseline(baseline):
    res = bv_scan(10**6, 10**3, 64)
    baseline.check("bv_total_x1e6_Q1e3", res.total, rel_tol=1e-9)
    baseline.check("bv_normalized_A1_x1e6_Q1e3", res.normalized[1], rel_tol=1e-9)
    baseline.check("bv_normalized_A3_x1e6_Q1e3", res.normalized[3], rel_tol=1e-9)
    # the theoretical modulus cutoff collapses at desk scale: report it
    assert res.reference_q_bound[1] < 1e-60
    print(f"bv-scan total = {res.total:.6f}; normalized A=1: {res.normalized[1]:.6f}")


def test_bv_checkpoint_sensitivity_report():
    lo = bv_scan(10**5, 100, 32)
    hi = bv_scan(10**5, 100, 64)
    delta = hi.total - lo.total
    assert delta >= 0.0    # finer grid can only raise the running maxima
    print(f"checkpoint doubling delta at 1e5/Q=100: {delta:.4f} ({delta / lo.total:.2%})")


def test_bv_validation():
    with pytest.raises(PreconditionError):
        bv_scan(50, 1, 8)
    with pytest.raises(PreconditionError):
        bv_scan(10**4, 0, 8)
    with pytest.raises(PreconditionError):
        bv_scan(10**4, 10**5, 8)


# ---------------------------------------------------------------------------
# folded class counts against a per-modulus referee

def _per_q_scan(x, Q, n_checkpoints):
    """The scan reduced mod every q: primes % q, one bincount per checkpoint
    slice, accumulated; returns (per_q, argmax_y, total)."""
    cps = bv_checkpoints(x, n_checkpoints)
    primes = primes_upto(x)
    ends = np.searchsorted(primes, cps, side="right")
    li_vals = np.array([log_integral(float(y)) for y in cps])
    per_q, argmax = {}, {}
    for q in range(1, Q + 1):
        reduced = [a for a in range(q) if math.gcd(a, q) == 1]
        r = primes % q
        C = np.cumsum([np.bincount(s, minlength=q) for s in np.split(r, ends[:-1])], axis=0)
        row_max = np.abs(C[:, reduced] - li_vals[:, None] / len(reduced)).max(axis=1)
        j = int(row_max.argmax())
        per_q[q], argmax[q] = float(row_max[j]), float(cps[j])
    return per_q, argmax, math.fsum(per_q.values())


def _check_fold(x, Q, n_checkpoints, q_min, q_max, eps):
    res = bv_scan(x, Q, n_checkpoints)
    per_q, argmax, total = _per_q_scan(x, Q, n_checkpoints)
    assert res.per_q == per_q
    assert res.argmax_y == argmax
    assert res.total == total
    ratios = montgomery_ratios(x, q_min, q_max, eps)
    assert list(ratios) == list(range(q_min, q_max + 1))
    for q, ratio in ratios.items():
        E = error_table(x, q).max_abs_error
        assert ratio == E * math.sqrt(q) / x ** (0.5 + eps), q


@st.composite
def _fold_cases(draw):
    x = draw(st.integers(min_value=100, max_value=2 * 10**4))
    Q = draw(st.integers(min_value=1, max_value=min(300, x)))
    # x >= 100 keeps 46 checkpoints at or above 2
    n_checkpoints = draw(st.integers(min_value=1, max_value=46))
    q_max = draw(st.integers(min_value=1, max_value=Q))
    q_min = draw(st.integers(min_value=1, max_value=q_max))
    eps = draw(st.sampled_from([0.0, 0.1, 0.25]))
    return x, Q, n_checkpoints, q_min, q_max, eps


@settings(max_examples=50, deadline=None)
@given(_fold_cases())
def test_folded_counts_match_per_q_reduction(case):
    _check_fold(*case)


@pytest.mark.parametrize("case", [
    (1000, 1, 8, 1, 1, 0.0),            # Q = 1: one top, no folds
    (4096, 256, 16, 64, 64, 0.0),       # Q a power of two; q_min == q_max
    (20000, 300, 46, 151, 300, 0.1),    # q_min > q_max // 2: no folds
    (20000, 300, 46, 1, 300, 0.25),     # every chain walked to q = 1
    (150, 150, 1, 75, 150, 0.0),        # Q = x, one checkpoint
])
def test_folded_counts_edge_cases(case):
    _check_fold(*case)


# ---------------------------------------------------------------------------
# the conjectured error bound constant

def test_montgomery_nonnegative():
    assert montgomery_ratios(10**4, 7, 7, 0.0)[7] >= 0.0


def test_montgomery_decreasing_in_eps():
    vals = [montgomery_ratios(10**4, 7, 7, eps)[7] for eps in (0.0, 0.1, 0.25)]
    assert vals[0] > vals[1] > vals[2]


def test_montgomery_scan_baseline(baseline):
    x = 10**6
    best_q, best = None, -1.0
    for q, r in montgomery_ratios(x, 2, 1000, 0.0).items():
        if r > best:
            best_q, best = q, r
    baseline.check("montgomery_max_ratio_x1e6", best, rel_tol=1e-9)
    baseline.check("montgomery_argmax_q_x1e6", best_q)
    print(f"montgomery max ratio at x=1e6, eps=0: {best:.6f} at q={best_q}")


def test_montgomery_validation():
    for args in ((100, 200, 200, 0.0),  # q beyond x
                 (100, 7, 7, -0.1),     # negative eps
                 (100, 10, 5, 0.0),     # q_min > q_max
                 (100, 2, 200, 0.0),    # q_max > x
                 (100, 0, 5, 0.0)):     # q_min below 1
        with pytest.raises(PreconditionError):
            montgomery_ratios(*args)
