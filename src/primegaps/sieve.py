"""Segmented sieve of Eratosthenes and the primality primitives built on it.

Provides exact primality bitmaps over arbitrary 64-bit ranges, prime
streams, pi(x), and integer factorization helpers.  Everything is
deterministic; counts are exact (no analytic approximations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import require

# A single sieve_range call spans at most SEGMENT_SIZE; iter_windows
# streams longer ranges in windows of that size, large enough that the
# per-segment base-prime setup cost stays negligible.
SEGMENT_SIZE = 1 << 24

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class SieveSegment:
    """Primality of the half-open range [lo, hi), stored for odd numbers only.

    odd[i] is True iff o + 2i is prime, where o = lo | 1 is the first odd
    number >= lo.  The one even prime, 2, is not stored: it is in the
    segment iff lo <= 2 < hi.
    """

    lo: int
    hi: int
    odd: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        """Full bitmap, expanded on demand: bits[i] is True iff lo + i is prime."""
        return _indicator(self.lo, self.hi, (self,))

    def primes(self) -> np.ndarray:
        """Primes in [lo, hi) as an int64 array."""
        # in place, one array per window: 2 * np.flatnonzero(odd) + (lo | 1)
        # peaks 6 to 8 MB higher on gaps and intervals
        out = np.flatnonzero(self.odd).astype(np.int64, copy=False)
        out *= 2
        out += self.lo | 1
        if self.lo <= 2 < self.hi:
            out = np.concatenate(([2], out))
        return out


# ---------------------------------------------------------------------------
# base primes (grown on demand by the segmented sieve itself)

# Every prime the table holds is below 2^32, so it is kept as uint32: the
# sieve's base primes stop at isqrt(2^63 - 1) + 1, below 3.04e9, and
# factorize needs primes up to 2^32 only.
_TABLE_LIMIT = 1 << 32
_base = np.empty(0, dtype=np.uint32)  # every prime below _base_limit
_base_limit = 0


def _base_primes(limit: int) -> np.ndarray:
    """All primes < limit, for limit <= 2^32: a read-only prefix view of
    the one uint32 prime table.

    The table is sieved by primes_between and grows at least twofold, up
    to 2^32.  Sieving [0, grow) needs only the primes below
    isqrt(grow - 1) + 1, which is less than grow once grow >= 3, and
    primes_between returns at once for grow <= 2, so the bootstrap
    recursion ends.
    """
    global _base, _base_limit
    require(limit <= _TABLE_LIMIT, f"the prime table holds only the primes below 2^32, "
            f"and {limit - 1} is past it")
    if limit > _base_limit:
        grow = min(max(limit, 2 * _base_limit), _TABLE_LIMIT)
        _base = primes_between(0, grow)
        _base.flags.writeable = False
        _base_limit = grow
        _clear_views()
    # a key of the table's dtype: with a Python int, numpy would cast the
    # whole table to int64 to compare it
    end = np.searchsorted(_base, np.uint32(max(limit, 1) - 1), side="right")
    return _base[: int(end)]


@lru_cache(maxsize=8)
def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, for n < 2^32: a read-only uint32 view of the base
    prime table.

    The cache is cleared whenever the table grows, so it never pins a
    superseded table."""
    return _base_primes(n + 1)


# bound to the cache itself, so it still clears it when a tracer rebinds
# the module name primes_upto (bench/shim.py does)
_clear_views = primes_upto.cache_clear


# ---------------------------------------------------------------------------
# segmented sieving

# Odd index i of the wheel pattern stands for 2i + 1; the pattern strikes
# every odd multiple of 3, 5, 7, 11 and 13 (those primes included), and
# repeats with period 3*5*7*11*13 in odd indices since 2*15015 = 30030 is
# a multiple of each of them.
_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = 15015


def _wheel_pattern() -> np.ndarray:
    pattern = np.ones(2 * _PERIOD, dtype=bool)  # two periods: any phase slices
    for p in _WHEEL:
        pattern[(p - 1) // 2 :: p] = False
    pattern.flags.writeable = False
    return pattern


_PATTERN = _wheel_pattern()

# A prime below _SMALL strikes block by block, at least 64 times per block
# of _BLOCK odd flags (1 MiB, within a typical L2 cache), so its strided
# writes stay in cache; measured at 1e8 this sieves about twice as fast as
# one pass over a whole 8 MiB segment.
_BLOCK = 1 << 20
_SMALL = 1 << 14


def _presieved(phase: int, n: int) -> np.ndarray:
    """n odd flags from the wheel pattern, starting at its index phase."""
    return np.resize(_PATTERN[phase : phase + _PERIOD], n)


def _first_strikes(lo: int, ps: np.ndarray) -> np.ndarray:
    """Odd index, counted from lo | 1, of the first odd multiple of each
    p in ps that is >= max(p^2, lo)."""
    # the first odd multiple at or past lo is lo + off with off < 2p, so
    # every term stays below 2p and nothing overflows near 2^63; its odd
    # index is off // 2 whatever the parity of lo
    off = (-lo) % ps
    even = off % 2 == lo % 2
    off[even] += ps[even]
    start = off // 2
    late = ps * ps >= lo
    start[late] = (ps[late] * ps[late] - (lo | 1)) // 2
    return start


def sieve_range(lo: int, hi: int) -> SieveSegment:
    """Sieve the half-open range [lo, hi) into its odd primality flags.

    The flags start as the presieved wheel pattern; only the primes from
    17 up to sqrt(hi) strike, each from its first odd multiple >= max(p^2,
    lo) in steps of 2p.  Refuses a span hi - lo beyond SEGMENT_SIZE with
    a PreconditionError; iterate iter_windows for longer ranges.
    """
    require(0 <= lo < hi, f"need 0 <= lo < hi, got [{lo}, {hi})")
    require(hi <= 2**63 - 1, "hi must fit in a signed 64-bit integer")
    require(hi - lo <= SEGMENT_SIZE, f"span {hi - lo} exceeds the {SEGMENT_SIZE} "
            "single-call budget; iterate segments instead")
    o = lo | 1
    odd = _presieved(((o - 1) // 2) % _PERIOD, (hi - o + 1) // 2)
    for p in _WHEEL:
        if o <= p < hi:
            odd[(p - o) // 2] = True
    if o == 1:
        odd[:1] = False
    ps = _base_primes(math.isqrt(hi - 1) + 1)[len(_WHEEL) + 1 :]
    n = len(odd)
    # primes with many strikes per block strike block by block, so the
    # strided writes stay in cache; the rest walk the whole segment, and
    # those with at most one strike in it are struck in one fancy index.
    # _first_strikes computes (-lo) % p and p * p, so each group is cast
    # from the table's uint32 to int64
    cuts = np.searchsorted(ps, np.array([min(_SMALL, n), n], dtype=ps.dtype))
    small, mid, big = (g.astype(np.int64) for g in np.split(ps, cuts))
    for b in range(0, n, _BLOCK):
        view = odd[b : b + _BLOCK]
        for j, p in zip(_first_strikes(o + 2 * b, small).tolist(), small.tolist()):
            view[j::p] = False
    for j, p in zip(_first_strikes(lo, mid).tolist(), mid.tolist()):
        odd[j::p] = False
    j = _first_strikes(lo, big)
    odd[j[j < n]] = False
    return SieveSegment(lo, hi, odd)


def _indicator(lo: int, hi: int, segments) -> np.ndarray:
    """Spread the odd flags of segments covering [lo, hi) over a full bitmap."""
    out = np.zeros(hi - lo, dtype=bool)  # zeroed: the even slots stay False
    for seg in segments:
        out[(seg.lo | 1) - lo : seg.hi - lo : 2] = seg.odd
    if lo <= 2 < hi:
        out[2 - lo] = True
    return out


def prime_indicator(lo: int, hi: int) -> np.ndarray:
    """Boolean array of length hi - lo; entry i marks lo + i prime."""
    require(0 <= lo < hi, f"need 0 <= lo < hi, got [{lo}, {hi})")
    return _indicator(lo, hi, iter_windows(lo, hi))


def iter_windows(lo: int, hi: int, overlap: int = 0) -> Iterator[SieveSegment]:
    """Cover [lo, hi) with consecutive spans [start, end) of
    max(SEGMENT_SIZE - overlap, overlap) and yield the odd flags of each
    window [start, end + overlap) as a SieveSegment.

    A consumer that looks up to overlap past each position of [start, end)
    holds one window at a time, never the whole range.  A window is one
    sieve_range call, or segments joined in one buffer for an overlap past
    SEGMENT_SIZE / 2.  No span is shorter than the overlap, so the overlaps
    sieved again add less than the range plus one overlap."""
    require(0 <= lo < hi and overlap >= 0, f"need 0 <= lo < hi, overlap >= 0, got "
            f"[{lo}, {hi}), {overlap}")
    step = max(SEGMENT_SIZE - overlap, overlap)
    for start in range(lo, hi, step):
        stop = min(start + step, hi) + overlap
        if stop - start <= SEGMENT_SIZE:
            yield sieve_range(start, stop)
            continue
        o = start | 1
        odd = np.empty(((stop | 1) - o) // 2, dtype=bool)
        for a in range(start, stop, SEGMENT_SIZE):
            b = min(a + SEGMENT_SIZE, stop)
            odd[((a | 1) - o) // 2 : ((b | 1) - o) // 2] = sieve_range(a, b).odd
        yield SieveSegment(start, stop, odd)


def _prime_count_bound(lo: int, hi: int) -> int:
    """An upper bound on the number of primes in [lo, hi), for hi >= 3:
    the odd numbers there and 2, or pi(hi) < 1.25506 hi / log hi
    (Rosser and Schoenfeld, 1962), whichever is smaller."""
    return min((hi - lo + 1) // 2 + 1, int(1.25506 * hi / math.log(hi)) + 1)


# primes_between sieves the table _TABLE_WINDOW integers at a time: their
# odd flags are one 1 MiB cache block of sieve_range, where a SEGMENT_SIZE
# window would hold 8 MiB beside the table, and smaller windows would run
# its per-window strike loops more often.  It turns _FILL_BLOCK odd flags
# into primes at a time, so its index temporary is a few hundred KB
_TABLE_WINDOW = 2 * _BLOCK
_FILL_BLOCK = 1 << 18


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) as a uint32 array, for hi <= 2^32.

    The primes are written straight into one buffer sized by
    _prime_count_bound, _FILL_BLOCK odd flags of a _TABLE_WINDOW window
    at a time; its pages past the last prime are never touched, and the
    buffer is shrunk in place.  The peak is the primes and one 1 MiB
    window, with no copy of a window's primes beside them."""
    require(hi <= _TABLE_LIMIT, f"primes_between stores uint32 primes, so hi {hi} "
            "may not pass 2^32")
    if hi <= max(lo, 2):
        return np.empty(0, dtype=np.uint32)
    lo = max(lo, 0)
    out = np.empty(_prime_count_bound(lo, hi), dtype=np.uint32)
    n = 0
    if lo <= 2:  # 2 < hi here, and the windows do not store it
        out[0] = 2
        n = 1
    for a in range(lo, hi, _TABLE_WINDOW):
        seg = sieve_range(a, min(a + _TABLE_WINDOW, hi))
        o = seg.lo | 1
        for b in range(0, len(seg.odd), _FILL_BLOCK):
            idx = np.flatnonzero(seg.odd[b : b + _FILL_BLOCK])
            end = n + len(idx)
            np.multiply(idx, 2, out=out[n:end], casting="unsafe")  # below 2^19: fits
            out[n:end] += o + 2 * b
            n = end
        del seg  # freed before the next window is sieved, not after
    out.resize(n, refcheck=False)  # no view of out exists yet
    return out


def prime_count(x: int) -> int:
    """pi(x): the exact number of primes <= x."""
    require(x >= 0, "x must be nonnegative")
    if x < 2:
        return 0
    # 1 for the prime 2, which the segments do not store
    return 1 + sum(int(np.count_nonzero(seg.odd)) for seg in iter_windows(0, x + 1))


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
    for p in _MR_WITNESSES:
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
        m += 1
    while True:
        if m > _U64_MAX:
            raise OverflowError("next prime exceeds 64 bits")
        if is_prime(m):
            return m
        m += 2


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
