import bisect
import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import pi_ap, prime_count, progressions, sieve
from primegaps.errors import PreconditionError
from primegaps.progressions import (
    bv_scan,
    error_table,
    log_integral,
    montgomery_ratios,
)
from primegaps.progressions import _scan, _top_counts, bv_checkpoints, bv_scans
from primegaps.sieve import primes_upto

from conftest import assert_no_child, simpson_log_integral, trial_division_primes


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


# the ends of the domain, 10^k, and the checkpoints of bv-scan --x 1e7 (the
# ap-scan workload) and of the doubled grid of the README's --sensitivity run
LI_GRID = [
    2.0, math.nextafter(2.0, math.inf), 2.5, 3.0,
    *(10.0**k for k in range(1, 19)), float(2**63 - 1), 1e300,
    *bv_checkpoints(10**7, 64).tolist(), *bv_checkpoints(10**6, 128).tolist(),
]


def mpmath_li(x: float) -> float:
    """li(x) - li(2) by mpmath's own li at 30 digits, rounded to a double."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.li(x, offset=True))


def test_log_integral_equals_mpmath_bit_for_bit():
    assert [log_integral(x) for x in LI_GRID] == [mpmath_li(x) for x in LI_GRID]
    assert log_integral(math.inf) == math.inf


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2, max_value=2.0**63, exclude_max=True))
def test_log_integral_equals_mpmath_on_random_floats(x):
    assert log_integral(x) == mpmath_li(x)


def test_li_pnt_ratio_baseline(baseline):
    x = 1e8
    ratio = log_integral(x) * math.log(x) / x
    baseline.check("li_times_logx_over_x_1e8", ratio, rel_tol=1e-12)
    print(f"li(1e8) log(x)/x = {ratio:.6f}")


# ---------------------------------------------------------------------------
# primes in progressions

def test_pi_ap_examples():
    assert pi_ap(20, 4, 1) == 3            # 5, 13, 17
    assert pi_ap(100, 4, 2) == 1           # only p = 2
    assert pi_ap(100, 4, 0) == 0
    # moduli past the uint32 table: each prime is its own residue
    assert pi_ap(100, 2**32 - 1, 97) == pi_ap(100, 2**40, 97) == 1
    assert pi_ap(100, 2**40, 2**40 + 97) == 1
    assert pi_ap(100, 2**40, 98) == pi_ap(100, 2**40, 2**33) == 0


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


@pytest.mark.parametrize("block", [7, 1 << 20])
@pytest.mark.parametrize("x", [2, 3, 1023, 1024, 2047, 10_000])
def test_error_table_counts_every_class(x, block, monkeypatch):
    primes = np.array(trial_division_primes(2, x + 1))
    monkeypatch.setattr(progressions, "_RESIDUE_BLOCK", block)
    for q in (1, 2, 30, 97, 2310):
        table = error_table(x, q)
        assert table.pi_x == len(primes)
        assert [(rec.a, rec.count) for rec in table.records] == [
            (a, int(np.count_nonzero(primes % q == a)))
            for a in range(q) if math.gcd(a, q) == 1
        ], q


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
        abs(prime_count(int(y)) - log_integral(y)) for y in bv_checkpoints(10**4, 16).tolist()
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
        phi = sum(1 for a in range(q) if math.gcd(a, q) == 1)
        best, best_y = -1.0, None
        for y in bv_checkpoints(10**4, 8).tolist():
            li_y = log_integral(y)
            err = max(
                abs(pi_ap(int(y), q, a) - li_y / phi)
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


def _check_fold(x, Q, n_checkpoints, q_min, q_max, eps, threads=1):
    res = bv_scan(x, Q, n_checkpoints, threads)
    per_q, argmax, total = _per_q_scan(x, Q, n_checkpoints)
    assert res.per_q == per_q
    assert res.argmax_y == argmax
    assert res.total == total
    ratios = montgomery_ratios(x, q_min, q_max, eps, threads)
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


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=50, deadline=None)
@given(_fold_cases())
def test_folded_counts_match_per_q_reduction(threads, case):
    _check_fold(*case, threads=threads)


@pytest.mark.parametrize("case", [
    (1000, 1, 8, 1, 1, 0.0),            # Q = 1: one top, no folds
    (4096, 256, 16, 64, 64, 0.0),       # Q a power of two; q_min == q_max
    (20000, 300, 46, 151, 300, 0.1),    # q_min > q_max // 2: no folds
    (20000, 300, 46, 1, 300, 0.25),     # every chain walked to q = 1
    (150, 150, 1, 75, 150, 0.0),        # Q = x, one checkpoint
])
def test_folded_counts_edge_cases(case):
    _check_fold(*case)


def _counts(q, C):
    return C


@pytest.mark.parametrize("x, ends, q_lo, q_hi", [
    (1000, None, 1, 1),          # Q = 1: one top
    (20000, None, 64, 64),       # q_lo == q_hi: one top, no folds
    (20000, None, 1, 300),       # every chain walked to q = 1
    (150, None, 1, 150),         # Q = x
    (20000, [0, 0, 5], 3, 40),   # empty leading slices
])
def test_class_counts_independent_of_threads(monkeypatch, x, ends, q_lo, q_hi):
    # more workers than this host may have cores
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    primes = primes_upto(x)
    if ends is None:
        ends = np.searchsorted(primes, bv_checkpoints(x, 8), side="right")
    serial = _scan(primes, ends, q_lo, q_hi, _counts, threads=1)
    pooled = _scan(primes, ends, q_lo, q_hi, _counts, threads=3)
    assert list(serial) == list(pooled) == list(range(q_lo, q_hi + 1))
    for q, C in serial.items():
        assert C.shape == (len(ends), q)
        assert np.array_equal(C, pooled[q]), q


def test_class_counts_rejects_no_threads():
    with pytest.raises(PreconditionError):
        _scan(primes_upto(100), [25], 1, 10, _counts, threads=0)


@pytest.mark.parametrize("block", [3, 5, 1 << 16])
def test_top_counts_reduces_uint32_tables(monkeypatch, block):
    """Against an int64 `%` referee, with blocks that cut the checkpoint
    slices; the array stands for sorted primes, up to 4,294,967,291, the
    largest prime below 2^32."""
    monkeypatch.setattr(progressions, "_RESIDUE_BLOCK", block)
    primes = np.array([2, 3, 5, 7, 65521, 2**31 - 1, 4_294_967_231, 4_294_967_279,
                       4_294_967_291], dtype=np.uint32)
    wide = primes.astype(np.int64)
    for ends in ([len(primes)], [0, 2, 2, len(primes) - 1, len(primes)]):
        for top in (1, 2, 64, 97, 1000):
            expected = np.cumsum([np.bincount(s % top, minlength=top)
                                  for s in np.split(wide[:ends[-1]], ends[:-1])], axis=0)
            assert np.array_equal(_top_counts(primes, ends, top), expected), (ends, top)


def test_table_searches_key_in_the_table_dtype(monkeypatch):
    # a key of another dtype makes numpy cast the whole table to compare
    # it: to int64 for a Python int, to float64 for a float checkpoint
    real = np.searchsorted
    keys = []

    def recording(a, v, *args, **kwargs):
        if np.shares_memory(a, sieve._base):
            keys.append((a.dtype, np.asarray(v).dtype))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", recording)
    primes_upto(3 * 10**5)  # grows the table unless it is already larger
    error_table(10**4, 30)
    bv_scans(12_345, 40, (8, 16))
    assert len(keys) >= 4
    assert all(key == table == np.uint32 for table, key in keys), keys


@pytest.mark.parametrize("x", [2**20, 12_345_677, 10**6])
def test_bv_scan_ends_are_the_prime_counts_at_each_checkpoint(monkeypatch, x):
    # x = 2^20 puts every eighth checkpoint on an integer; below x itself,
    # 12,345,677 puts none there
    ends_seen = []
    real = progressions._scan

    def recording(primes, ends, *args):
        ends_seen.append(ends)
        return real(primes, ends, *args)

    monkeypatch.setattr(progressions, "_scan", recording)
    bv_scan(x, 10, 64)
    cps = bv_checkpoints(x, 64)
    primes = primes_upto(x)
    table = primes.tolist()
    # Python compares an int with a float exactly, so bisect is the referee
    assert ends_seen[0].tolist() == [bisect.bisect_right(table, y) for y in cps.tolist()]
    assert ends_seen[0].tolist() == np.searchsorted(primes.astype(np.int64), cps,
                                                    side="right").tolist()


def test_bv_scans_equal_separate_scans():
    for x, sizes in ((10**4, (8, 16)), (12_345, (3, 46, 20))):
        for threads in (1, 2):
            scans = bv_scans(x, 60, sizes, threads)
            assert scans == [bv_scan(x, 60, n, 1) for n in sizes], (x, sizes)


def _raise_in_worker(q, C):
    raise ValueError(os.getpid())


def _sleep_in_worker(q, C):
    time.sleep(20)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the scans walk every chain in-process")
def test_scans_leave_no_threads_running(two_recorded_cores):
    before = threading.active_count()
    error_table(10**4, 30)
    assert_no_child()
    for threads in (1, 2, 10_000):
        bv_scan(10**4, 50, 8, threads=threads)
        assert_no_child()
        montgomery_ratios(10**4, 2, 50, 0.0, threads=threads)
        assert_no_child()
    # two children for each of the two scans at 2 and at 10000 threads
    assert len(two_recorded_cores) == 8
    # a measure that raises in a worker reaches the caller as that worker's
    # own exception, and every child is still reaped
    two_recorded_cores.clear()
    with pytest.raises(ValueError) as raised:
        _scan(primes_upto(10**4), [1229], 1, 50, _raise_in_worker, threads=2)
    assert type(raised.value) is ValueError
    assert len(raised.value.args) == 1 and raised.value.args[0] in two_recorded_cores
    assert raised.value.args[0] != os.getpid()
    assert_no_child()
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the scans walk every chain in-process")
def test_interrupted_scan_kills_its_workers(two_recorded_cores):
    # the parent is interrupted while both children still measure their one
    # top each (50 and 49): it kills and reaps them instead of waiting them out
    def interrupt(signum, frame):
        raise TimeoutError("interrupted")

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(TimeoutError, match="interrupted"):
            _scan(primes_upto(10**4), [1229], 49, 50, _sleep_in_worker, threads=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10
    assert len(two_recorded_cores) == 2
    assert_no_child()


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
