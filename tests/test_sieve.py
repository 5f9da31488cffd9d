import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primegaps
from primegaps import (
    PreconditionError,
    RangeTooLargeError,
    factorize,
    is_prime,
    iter_gaps,
    next_prime,
    prime_count,
    prime_indicator,
    primes_between,
    primes_upto,
    sieve_range,
)
from primegaps.sieve import MAX_RANGE

from conftest import naive_factorize, naive_sieve_count, trial_division_primes


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
    with pytest.raises(RangeTooLargeError):
        sieve_range(0, MAX_RANGE + 1)


def test_prime_count_examples():
    assert prime_count(1) == 0
    assert prime_count(100) == len(trial_division_primes(0, 101)) == 25
    assert prime_count(10**6) == naive_sieve_count(10**6)
    # published values of pi(10^k)
    published = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)
    for k, pi in enumerate(published, start=1):
        assert prime_count(10**k) == pi


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


def test_iter_gaps_examples():
    gaps = list(iter_gaps(2, 12))
    assert [(g.p, g.p_next) for g in gaps] == [(2, 3), (3, 5), (5, 7), (7, 11), (11, 13)]
    assert [g.gap for g in gaps] == [1, 2, 2, 4, 2]
    assert list(iter_gaps(50, 50)) == []


def test_iter_gaps_boundary_counts():
    # one gap per prime in range, successor unconstrained
    for lo, hi in ((2, 12), (3, 100), (10, 11), (14, 17)):
        got = len(list(iter_gaps(lo, hi)))
        assert got == len(trial_division_primes(lo, hi))


def test_iter_gaps_structure():
    prev_p = 0
    for g in iter_gaps(2, 500):
        assert g.p > prev_p
        assert g.p_next == next_prime(g.p)
        assert g.gap == g.p_next - g.p
        assert g.normalized == pytest.approx(g.gap / math.log(g.p))
        if g.p > 2:
            assert g.gap % 2 == 0
        prev_p = g.p


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


def test_prime_indicator_consistency():
    ind = prime_indicator(100, 10_000)
    assert list(np.flatnonzero(ind) + 100) == trial_division_primes(100, 10_000)


def test_primes_between_empty():
    assert len(primes_between(24, 29)) == 0
    assert len(primes_between(0, 2)) == 0


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
