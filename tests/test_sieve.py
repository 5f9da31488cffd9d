import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primegaps
from primegaps import prime_count, sieve, sieve_range
from primegaps.errors import PreconditionError
from primegaps.sieve import (
    factorize,
    is_prime,
    iter_windows,
    next_prime,
    prime_indicator,
    primes_between,
    primes_upto,
)
from primegaps.sieve import SEGMENT_SIZE

from conftest import (
    naive_factorize, naive_sieve_count, naive_sieve_flags, trial_division_primes,
)


def test_sieve_range_examples():
    assert list(sieve_range(2, 30).primes()) == trial_division_primes(2, 30)
    assert list(sieve_range(0, 2).primes()) == []
    assert list(sieve_range(90, 100).primes()) == [97]


def test_sieve_matches_trial_division_small():
    seg = sieve_range(0, 10_000)
    expected = trial_division_primes(0, 10_000)
    assert list(seg.primes()) == expected


def test_sieve_range_validation():
    with pytest.raises(PreconditionError):
        sieve_range(5, 5)
    with pytest.raises(PreconditionError):
        sieve_range(-1, 10)
    with pytest.raises(PreconditionError, match="single-call budget"):
        sieve_range(0, SEGMENT_SIZE + 1)


def test_prime_count_examples():
    assert prime_count(1) == 0
    assert prime_count(100) == len(trial_division_primes(0, 101)) == 25
    assert prime_count(10**6) == naive_sieve_count(10**6)
    # published values of pi(10^k)
    published = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)
    for k, pi in enumerate(published, start=1):
        assert prime_count(10**k) == pi


def test_prime_count_1e9():
    # published pi(10^9): the README promises exact pi(x) up to 1e9
    assert prime_count(10**9) == 50_847_534


@given(st.integers(min_value=0, max_value=3000))
def test_prime_count_matches_trial_division(x):
    assert prime_count(x) == len(trial_division_primes(0, x + 1))


def test_next_prime_examples():
    assert next_prime(2) == 3
    assert next_prime(7) == 11
    assert next_prime(89) == 97
    assert next_prime(0) == 2
    assert next_prime(1) == 2


@given(st.integers(min_value=0, max_value=10_000))
def test_next_prime_matches_trial_division(n):
    q = next_prime(n)
    assert q > n
    assert trial_division_primes(n + 1, q + 1) == [q]


def test_next_prime_overflow():
    with pytest.raises(OverflowError):
        next_prime(2**64 - 2)


def test_is_prime_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == (n in set(trial_division_primes(0, 2000)))
    # around a 64-bit-scale value: factor structure known
    assert is_prime(2**61 - 1)          # Mersenne prime
    assert not is_prime(2**61 + 1)      # divisible by 3 * 715827883 * ...


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=60_000),
    st.lists(st.integers(min_value=1, max_value=59_999), min_size=0, max_size=4),
)
def test_segment_independence(n, cuts):
    """Sieving [0, n) in one block equals any partition, bit for bit."""
    points = sorted({0, n, *[c for c in cuts if c < n]})
    mono = sieve_range(0, n).bits
    parts = [sieve_range(a, b).bits for a, b in zip(points, points[1:])]
    assert np.array_equal(mono, np.concatenate(parts) if parts else mono[:0])


def _assert_sieved(lo: int, hi: int) -> None:
    expected = trial_division_primes(lo, hi)
    seg = sieve_range(lo, hi)
    assert seg.primes().tolist() == expected, (lo, hi)
    assert (np.flatnonzero(seg.bits) + lo).tolist() == expected, (lo, hi)


def test_sieve_wheel_edges_match_trial_division():
    # the presieve strikes 3..13, so 17^2 = 289 is the first composite
    # left for the strike loop
    for n in range(1, 401):
        _assert_sieved(0, n)
    # windows starting on 1, on 2, on each presieved prime and on 17
    for lo in (1, 2, 3, 5, 7, 11, 13, 17):
        for hi in range(lo + 1, lo + 200):
            _assert_sieved(lo, hi)
    # windows straddling a multiple of 2 * 15015, where the presieve
    # pattern wraps, from odd and even starts
    for m in (2 * 15015, 4 * 15015, 2 * 15015 * 35):
        for lo in range(m - 40, m + 1):
            _assert_sieved(lo, m + 41)


def test_segment_boundary_with_odd_lo():
    lo = 10**6 + 1  # odd, so the boundary lo + SEGMENT_SIZE is odd too
    boundary, hi = lo + SEGMENT_SIZE, lo + SEGMENT_SIZE + 1000
    segs = list(iter_windows(lo, hi))
    assert [(s.lo, s.hi) for s in segs] == [(lo, boundary), (boundary, hi)]
    primes = np.concatenate([s.primes() for s in segs])
    assert primes[primes >= boundary - 1000].tolist() == trial_division_primes(boundary - 1000, hi)
    # prime_count cuts its segments at multiples of SEGMENT_SIZE from 0
    assert len(primes) == prime_count(hi - 1) - prime_count(lo - 1)
    assert np.array_equal(np.flatnonzero(prime_indicator(lo, hi)) + lo, primes)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**15) | st.integers(min_value=10**12, max_value=10**15),
    st.integers(min_value=1, max_value=4096),
)
def test_sieve_far_from_zero_matches_is_prime(lo, span):
    """The presieve phase and the parity of the first strike far from 0;
    an odd lo also checks that prime_indicator's even slots are False."""
    hi = lo + span
    expected = [n for n in range(lo, hi) if is_prime(n)]
    assert sieve_range(lo, hi).primes().tolist() == expected
    assert (np.flatnonzero(prime_indicator(lo, hi)) + lo).tolist() == expected


@pytest.mark.parametrize("size", [8, 1000, 1 << 10, 7])
@pytest.mark.parametrize("lo, hi, overlap", [
    (0, 5000, 0), (1, 5000, 2), (2, 4097, 9), (3, 2048, 40), (1000, 1001, 1500),
])
def test_windows_are_spans_extended_by_the_overlap(lo, hi, overlap, size, sieve_window):
    # a window is one sieve_range call, and an overlap past half of it is
    # refused before anything is sieved
    whole = prime_indicator(0, hi + overlap)
    sieve_window(size)
    if overlap > size // 2:
        with pytest.raises(PreconditionError, match="overlap"):
            next(iter_windows(lo, hi, overlap))
        return
    step = size - overlap
    windows = list(iter_windows(lo, hi, overlap))
    assert [w.lo for w in windows] == list(range(lo, hi, step))
    for w in windows:
        end = min(w.lo + step, hi)
        assert w.hi == end + overlap
        assert np.array_equal(w.bits, whole[w.lo : end + overlap]), (w.lo, end)


def _prime_below(n: int) -> int:
    n -= 1
    while not is_prime(n):
        n -= 1
    return n


# the primes next to each cut of the strike kernel: 2^14, below which a
# prime strikes in strided slices, and 2^20, a window's count of odd flags,
# past which a prime strikes a window once or not at all
CUT_PRIMES = (_prime_below(2**14), next_prime(2**14), _prime_below(2**20), next_prime(2**20))


@pytest.mark.parametrize("x", [10**12, 10**15, 10**16])
def test_windows_far_out_match_is_prime_at_seams_and_cuts(x):
    # each planted m = p q, with q the least prime past x / p > p, is
    # struck by p alone, once in its window; windows overlapping by 1 put
    # m last in one window and first in the next
    size = sieve.SEGMENT_SIZE
    for p in (*(c for c in CUT_PRIMES if c * c < x), _prime_below(math.isqrt(x))):
        m = p * next_prime(x // p)
        expected = [n for n in range(m - 64, m + 65) if is_prime(n)]
        assert m not in expected
        lo = m - size + 1
        before, after = iter_windows(lo, m + 64, 1)
        assert (before.lo, before.hi, after.lo, after.hi) == (lo, m + 1, m, m + 65)
        assert np.array_equal(before.odd, sieve_range(lo, m + 1).odd), p  # strikes found afresh
        primes = np.concatenate([before.primes(), after.primes()])  # they share m alone
        assert primes[primes >= m - 64].tolist() == expected, p
    # three whole windows and a short one from odd x - 1, each against its
    # strikes found afresh, and the same range restarted inside a window
    lo, hi = x - 1, x + 3 * size + 1000
    stream = list(iter_windows(lo, hi))
    assert len(stream) == 4
    for w in stream:
        assert np.array_equal(w.odd, sieve_range(w.lo, w.hi).odd), w.lo
    mid = lo + size + 12_345
    restarted = [*iter_windows(lo, mid), *iter_windows(mid, hi)]
    assert np.array_equal(*(np.concatenate([w.primes() for w in ws]) for ws in (stream, restarted)))


def test_windows_validation():
    half = SEGMENT_SIZE // 2
    for lo, hi, overlap in ((5, 5, 0), (-1, 5, 0), (0, 5, -1), (0, 5, half + 1)):
        with pytest.raises(PreconditionError):
            next(iter_windows(lo, hi, overlap))
    window = next(iter_windows(0, 5, half))
    assert (window.lo, window.hi) == (0, 5 + half)


def test_prime_indicator_consistency():
    ind = prime_indicator(100, 10_000)
    assert list(np.flatnonzero(ind) + 100) == trial_division_primes(100, 10_000)


@pytest.mark.parametrize("lo, hi", [(0, 3 * (1 << 21) + 7), (1, 2 * (1 << 21)), (10**6 + 1, 10**7)])
def test_primes_between_tiles_its_range_with_cache_block_windows(lo, hi, monkeypatch):
    # each window is one sieve_range call, whose odd flags are one 1 MiB
    # cache block; the referee is the unsegmented sieve of conftest
    flags = np.frombuffer(naive_sieve_flags(hi - 1), dtype=np.uint8)
    expected = np.flatnonzero(flags[lo:]) + lo
    primes_upto(math.isqrt(hi - 1) + 1)  # grows the table beforehand
    spans = []

    def recording(a, b, strikes=None, sieve_range=sieve.sieve_range):
        spans.append((a, b))
        seg = sieve_range(a, b, strikes)
        assert len(seg.odd) <= 1 << 20
        return seg

    monkeypatch.setattr(sieve, "sieve_range", recording)
    primes = primes_between(lo, hi)
    assert all(b - a <= SEGMENT_SIZE for a, b in spans), spans
    assert [a for a, _ in spans] == [lo] + [b for _, b in spans[:-1]] and spans[-1][1] == hi
    assert np.array_equal(primes, expected)


@pytest.mark.parametrize("window", [1, 2, 3, 5, 14])
def test_primes_between_seams_next_to_2_and_the_wheel_primes(window, sieve_window):
    # windows of 1 to 14 integers from every start below 16 put a seam on
    # each side of 2, 3, 5, 7, 11 and 13, where sieve_range sets the wheel
    # primes back after the presieve and clears 1
    sieve_window(window)
    for lo in range(16):
        assert primes_between(lo, lo + 60).tolist() == trial_division_primes(lo, lo + 60), lo


@pytest.mark.parametrize("window", [8, 1000, 1 << 10])
@pytest.mark.parametrize("lo, hi", [(0, 3), (0, 5000), (2, 4097), (1000, 1001), (1013, 3072)])
def test_primes_between_fills_one_buffer_across_seams(lo, hi, window, sieve_window):
    sieve_window(window)
    primes = primes_between(lo, hi)
    assert primes.dtype == np.uint32 and primes.flags.owndata
    assert primes.tolist() == trial_division_primes(lo, hi)


@pytest.mark.parametrize("fill", [1, 8, 37])
def test_primes_between_fills_each_window_block_by_block(fill, monkeypatch, sieve_window):
    # windows of 1000 integers (500 odd flags) are cut into blocks of fill
    # flags, the window that holds 2 included, and blocks of one flag are
    # often empty
    sieve_window(1000)
    monkeypatch.setattr(sieve, "_FILL_BLOCK", fill)
    for lo, hi in ((0, 5000), (2, 4097), (1013, 3072), (0, 3), (3, 500)):
        primes = primes_between(lo, hi)
        assert primes.dtype == np.uint32 and primes.flags.owndata
        assert primes.tolist() == trial_division_primes(lo, hi), (lo, hi)


def test_prime_count_bound_holds():
    # pi(x) < 1.25506 x / log x is tightest at x = 113, where pi = 30
    below = np.concatenate(([0], np.cumsum(prime_indicator(0, 5000))))  # primes < n
    for hi in range(3, 5000):
        for lo in (0, 1, 2, 3, hi // 2, hi - 2, hi - 1):
            assert sieve._prime_count_bound(lo, hi) >= below[hi] - below[lo], (lo, hi)


def test_primes_between_empty():
    assert len(primes_between(24, 29)) == 0
    assert len(primes_between(0, 2)) == 0


def test_prime_table_refuses_past_2_to_32_before_sieving(monkeypatch):
    def refuse(*args):
        raise AssertionError("sieved past the uint32 prime table")

    monkeypatch.setattr(sieve, "sieve_range", refuse)
    for n in (2**32, 5 * 10**9):
        with pytest.raises(PreconditionError, match="2\\^32"):
            primes_upto(n)
    with pytest.raises(PreconditionError, match="2\\^32"):
        primes_between(0, 2**32 + 1)


def test_prime_table_growth_stops_at_2_to_32(monkeypatch):
    # the table would double past 2^32 from here; a real table to 2^32 is
    # 812 MB, so primes_between only records what it is asked for
    asked = []

    def record(lo, hi):
        asked.append((lo, hi))
        return np.array([2, 3, 5], dtype=np.uint32)

    monkeypatch.setattr(sieve, "primes_between", record)
    monkeypatch.setattr(sieve, "_base", np.array([2, 3], dtype=np.uint32))
    monkeypatch.setattr(sieve, "_base_limit", 2**31 + 10)
    assert sieve._base_primes(2**31 + 11).tolist() == [2, 3, 5]
    assert asked == [(0, 2**32)] and sieve._base_limit == 2**32
    assert sieve._base_primes(2**32).tolist() == [2, 3, 5]
    with pytest.raises(PreconditionError, match="2\\^32"):
        sieve._base_primes(2**32 + 1)
    assert asked == [(0, 2**32)]


def test_pnt_ratio_report(capsys):
    # pi(x) log x / x stays near 1 at desk scale (loose report bounds)
    for exp in (4, 5, 6, 7):
        x = 10**exp
        ratio = prime_count(x) * math.log(x) / x
        print(f"pi({x:.0e}) * log(x)/x = {ratio:.4f}")
        assert 0.9 <= ratio <= 1.2


def test_factorize_matches_naive():
    # 2^24 +- 1 straddle the end of the old smallest-prime-factor table;
    # the last input is a semiprime with both factors near 10^6
    extra = [2**31 - 1, 600851475143, 10**12 + 39, 2**24 - 1, 2**24, 2**24 + 1,
             1_000_003 * 1_000_033]
    for n in list(range(1, 500)) + extra:
        assert factorize(n) == naive_factorize(n)


def _trial_division_upto(n: int) -> np.ndarray:
    """Primes <= n by trial division, vectorized over m: m is kept when no
    prime up to sqrt(n) other than m divides it; those primes come from
    the scalar trial division."""
    m = np.arange(n + 1, dtype=np.int64)
    keep = m >= 2
    for p in trial_division_primes(2, math.isqrt(n) + 1):
        keep &= (m % p != 0) | (m == p)
    return np.flatnonzero(keep)


def test_primes_upto_views_one_table():
    # the table's growth clears the cache, so whatever ran before, both
    # views point into the current table
    big = primes_upto(10**6)
    small = primes_upto(10**5)
    assert np.shares_memory(big, small)
    assert not big.flags.writeable and not small.flags.writeable
    assert np.array_equal(big, _trial_division_upto(10**6))
    assert small.tolist() == trial_division_primes(0, 10**5 + 1)


def test_primes_upto_cache_follows_table_growth():
    # a fresh process, so that both calls grow the table whatever ran before
    script = (
        "import numpy as np\n"
        "from primegaps import sieve\n"
        "sieve.primes_upto(10**5)\n"
        "sieve.primes_upto(10**7)\n"
        "assert np.shares_memory(sieve.primes_upto(10**5), sieve._base)\n"
    )
    package_root = os.path.dirname(os.path.dirname(primegaps.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_sieve_range_rejects_beyond_signed_64():
    with pytest.raises(PreconditionError):
        sieve_range(2**63 - 10, 2**63 + 10)
