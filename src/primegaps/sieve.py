"""Segmented sieve of Eratosthenes and the primality primitives built on it.

Provides exact primality bitmaps over arbitrary 64-bit ranges, prime and
prime-gap streams, pi(x), and integer factorization helpers.  Everything is
deterministic; counts are exact (no analytic approximations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import RangeTooLargeError, require

# A single sieve_range call accepts spans up to MAX_RANGE; iter_segments
# streams longer ranges in segments of SEGMENT_SIZE, large enough that the
# per-segment base-prime setup cost stays negligible.
MAX_RANGE = 1 << 26
SEGMENT_SIZE = 1 << 24

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class SieveSegment:
    """Primality bitmap for the half-open range [lo, hi).

    bits[i] is True iff lo + i is prime.
    """

    lo: int
    hi: int
    bits: np.ndarray

    def primes(self) -> np.ndarray:
        """Primes in [lo, hi) as an int64 array."""
        return np.flatnonzero(self.bits).astype(np.int64) + self.lo


@dataclass(frozen=True)
class PrimeGap:
    """A prime p, its successor, and the gap normalized by log p."""

    p: int
    p_next: int
    gap: int
    normalized: float


# ---------------------------------------------------------------------------
# base primes (grown on demand by the segmented sieve itself)

_base = np.empty(0, dtype=np.int64)  # every prime below _base_limit
_base_limit = 0


def _base_primes(limit: int) -> np.ndarray:
    """All primes < limit: a read-only prefix view of the one prime table.

    The table is sieved by primes_between and grows at least twofold.
    Sieving [0, grow) needs only the primes below isqrt(grow - 1) + 1,
    which is less than grow once grow >= 3, and primes_between returns at
    once for grow <= 2, so the bootstrap recursion ends.
    """
    global _base, _base_limit
    if limit > _base_limit:
        grow = max(limit, 2 * _base_limit)
        _base = primes_between(0, grow)
        _base.flags.writeable = False
        _base_limit = grow
        _clear_views()
    return _base[: int(np.searchsorted(_base, limit))]


@lru_cache(maxsize=8)
def primes_upto(n: int) -> np.ndarray:
    """All primes <= n: a read-only view of the base prime table.

    The cache is cleared whenever the table grows, so it never pins a
    superseded table."""
    return _base_primes(n + 1)


# bound to the cache itself, so it still clears it when a tracer rebinds
# the module name primes_upto (bench/shim.py does)
_clear_views = primes_upto.cache_clear


# ---------------------------------------------------------------------------
# segmented sieving

def sieve_range(lo: int, hi: int) -> SieveSegment:
    """Sieve the half-open range [lo, hi) into a primality bitmap.

    Raises RangeTooLargeError when hi - lo exceeds MAX_RANGE; iterate
    iter_segments for longer ranges.
    """
    require(0 <= lo < hi, f"need 0 <= lo < hi, got [{lo}, {hi})")
    require(hi <= 2**63 - 1, "hi must fit in a signed 64-bit integer")
    if hi - lo > MAX_RANGE:
        raise RangeTooLargeError(
            f"span {hi - lo} exceeds the {MAX_RANGE} single-call budget; "
            "iterate segments instead"
        )
    bits = np.ones(hi - lo, dtype=bool)
    if lo < 2:
        bits[: min(2 - lo, hi - lo)] = False
    for p in _base_primes(math.isqrt(hi - 1) + 1).tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            bits[start - lo :: p] = False
    return SieveSegment(lo, hi, bits)


def iter_segments(lo: int, hi: int) -> Iterator[SieveSegment]:
    """Cover [lo, hi) with consecutive segments of at most SEGMENT_SIZE."""
    require(0 <= lo < hi, f"need 0 <= lo < hi, got [{lo}, {hi})")
    cur = lo
    while cur < hi:
        nxt = min(cur + SEGMENT_SIZE, hi)
        yield sieve_range(cur, nxt)
        cur = nxt


def prime_indicator(lo: int, hi: int) -> np.ndarray:
    """Boolean array of length hi - lo; entry i marks lo + i prime."""
    require(0 <= lo < hi, f"need 0 <= lo < hi, got [{lo}, {hi})")
    out = np.empty(hi - lo, dtype=bool)
    for seg in iter_segments(lo, hi):
        out[seg.lo - lo : seg.hi - lo] = seg.bits
    return out


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) as an int64 array."""
    if hi <= max(lo, 2):
        return np.empty(0, dtype=np.int64)
    parts = [seg.primes() for seg in iter_segments(max(lo, 0), hi)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def prime_count(x: int) -> int:
    """pi(x): the exact number of primes <= x."""
    require(x >= 0, "x must be nonnegative")
    if x < 2:
        return 0
    return sum(int(seg.bits.sum()) for seg in iter_segments(0, x + 1))


# ---------------------------------------------------------------------------
# point primality (deterministic Miller-Rabin, exact for n < 3.3e24)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n <= 2^64 - 1.

    Deterministic Miller-Rabin with the 12-witness set proven correct for
    all n < 3.3 * 10^24; no probabilistic behavior.
    """
    require(0 <= n <= _U64_MAX, "n outside 64-bit range")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n.

    Raises OverflowError if the result would not fit in 64 bits.
    """
    require(n >= 0, "n must be nonnegative")
    if n < 2:
        return 2
    m = n + 1
    if m % 2 == 0:
        if m == 2:
            return 2
        m += 1
    while True:
        if m > _U64_MAX:
            raise OverflowError("next prime exceeds 64 bits")
        if is_prime(m):
            return m
        m += 2


def iter_gaps(x_lo: int, x_hi: int) -> Iterator[PrimeGap]:
    """One PrimeGap per prime p in [x_lo, x_hi), in increasing order.

    The successor is the true next prime and may lie beyond x_hi; the last
    in-range prime's gap is completed by scanning past the range end.
    The normalized field is gap / log(p) with the natural log.
    """
    require(x_lo >= 2, "x_lo must be at least 2")
    if x_hi <= x_lo:
        return
    prev: int | None = None
    for seg in iter_segments(x_lo, x_hi):
        for p in seg.primes():
            p = int(p)
            if prev is not None:
                yield PrimeGap(prev, p, p - prev, (p - prev) / math.log(prev))
            prev = p
    if prev is not None:
        q = next_prime(prev)
        yield PrimeGap(prev, q, q - prev, (q - prev) / math.log(prev))


# ---------------------------------------------------------------------------
# factorization by trial division over the base primes

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    require(n >= 1, "n must be positive")
    out: list[tuple[int, int]] = []
    for p in _base_primes(math.isqrt(n) + 1).tolist():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out
