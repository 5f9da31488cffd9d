"""Admissible offset tuples and the Hardy-Littlewood singular series.

An offset tuple H = {h_1 < ... < h_k} is admissible when its elements never
cover all residue classes modulo a prime; equivalently its singular series

    S(H) = prod over primes ell of (1 - nu_H(ell)/ell) (1 - 1/ell)^(-k)

is nonzero, where nu_H(ell) counts the distinct residues of H mod ell.
The product here is truncated at a level L with a rigorous tail bound.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import require
from . import sieve
from .sieve import is_prime, iter_windows, primes_upto


@dataclass(frozen=True)
class OffsetTuple:
    """Strictly increasing nonnegative offsets h_1 < ... < h_k.

    Repeated offsets are rejected outright rather than deduplicated: a
    repeat would silently change k and with it the singular series.
    """

    offsets: tuple[int, ...]

    def __post_init__(self):
        offs = tuple(int(h) for h in self.offsets)
        require(len(offs) >= 1, "tuple must contain at least one offset")
        require(all(h >= 0 for h in offs), "offsets must be nonnegative")
        if len(set(offs)) != len(offs):
            dupes = sorted(h for h in set(offs) if offs.count(h) > 1)
            require(False, f"repeated offsets not allowed: {dupes}")
        require(
            all(a < b for a, b in zip(offs, offs[1:])),
            "offsets must be strictly increasing",
        )
        object.__setattr__(self, "offsets", offs)

    @classmethod
    def parse(cls, text: str) -> "OffsetTuple":
        """Parse comma-separated offsets, e.g. '0,2,6'."""
        try:
            offs = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            require(False, f"cannot parse offsets {text!r}: {exc}")
        return cls(offs)

    @property
    def k(self) -> int:
        return len(self.offsets)

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.offsets)


@lru_cache(maxsize=1 << 16)
def _nu_cached(offsets: tuple[int, ...], ell: int) -> int:
    """nu_H(ell): the residue classes mod the prime ell that the offsets
    occupy, k as soon as ell exceeds every offset."""
    return len({h % ell for h in offsets})


@dataclass(frozen=True)
class SingularSeriesValue:
    """Truncated singular series with a rigorous truncation bound.

    value multiplies the Euler factors over primes ell <= truncation_L
    exactly (in double precision); tail_bound bounds |log| of the omitted
    factor product, so the full value lies within value * exp(+-tail_bound).
    is_zero is set, with the covering witness prime, when some factor
    vanishes; the product is then exactly zero, no truncation involved.
    """

    value: float
    truncation_L: int
    tail_bound: float
    is_zero: bool
    witness: int | None = None


def default_truncation(h_max: int, k: int) -> int:
    """Default level for k offsets up to h_max: 10^5 covers k <= 10
    comfortably, raised to the least level singular_series accepts."""
    return max(100_000, h_max, 2 * k)


def singular_series(H: OffsetTuple, L: int | None = None) -> SingularSeriesValue:
    """Truncated Euler product for S(H) over primes ell <= L.

    Requires L >= max(h_k, 2k): the first condition keeps every prime with
    nontrivial residue behavior inside the product, the second validates
    the tail estimate |log factor| <= k(k+1)/ell^2 (true for ell >= 2k),
    which sums to the reported tail_bound k(k+1)/L.
    """
    if L is None:
        L = default_truncation(H.offsets[-1], H.k)
    k = H.k
    require(
        L >= max(H.offsets[-1], 2 * k),
        f"L-too-small: need L >= max(h_k, 2k) = {max(H.offsets[-1], 2 * k)}, got {L}",
    )
    _, values = next(_series_blocks([H.offsets], k, L))
    if values[0] == 0.0:
        # the witness: the least prime ell whose ell classes the offsets all
        # occupy, necessarily ell <= k (nu <= k < ell otherwise)
        small = primes_upto(k).tolist()
        witness = next(ell for ell in small if len({h % ell for h in H.offsets}) == ell)
        return SingularSeriesValue(0.0, L, 0.0, True, witness)
    # the k = 1 product is exactly 1, so nothing is truncated
    tail = k * (k + 1) / L if k > 1 else 0.0
    return SingularSeriesValue(float(values[0]), L, tail, False, None)


# The series kernel takes blocks of _SERIES_ROWS tuples and folds their
# Euler factors in matrices of at most _SERIES_CELLS float64 cells (512
# KiB), over the primes of one sieve window (1 MiB of odd flags) at a
# time, so its peak is bounded whatever L, the tuple count and the spans.
_SERIES_CELLS = 1 << 16
_SERIES_ROWS = 1 << 10


def _series_windows(k: int, L: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(primes, power, shared) for the primes ell <= L of each consecutive
    sieve window: power is (1 - 1/ell)^(-k), and shared = (1 - k/ell) power
    is the factor of a prime that sees all k residues."""
    for seg in iter_windows(0, L + 1):
        primes = seg.primes()
        ell = primes.astype(np.float64)
        power = (1.0 - 1.0 / ell) ** (-k)
        yield primes, power, (1.0 - k / ell) * power


def _nu(T: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """nu of each tuple row of T (columns) mod each of primes (rows)."""
    res = np.sort(T % primes[:, None, None], axis=2)
    return 1 + (np.diff(res, axis=2) != 0).sum(axis=2)


def _fold(acc: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """acc times each column of factors, multiplied from the top."""
    factors[0] *= acc
    return factors.prod(axis=0)


def _series_blocks(
    offset_tuples: Iterable[tuple[int, ...]], k: int, L: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Truncated S over the primes ell <= L for a stream of k-offset tuples.

    Yields (T, values) per block of _SERIES_ROWS tuples: T stacks the
    block's tuples as an (n, k) int64 array and values[i] is the product
    for row i.  The caller guarantees L >= max(h_k, 2k) for every tuple.
    A tuple covering all classes mod some ell <= k gets 0.0 without a
    product, and only a block with an admissible row sieves [0, L].
    """
    stream = iter(offset_tuples)
    small = primes_upto(k)
    while block := list(itertools.islice(stream, _SERIES_ROWS)):
        T = np.array(block, dtype=np.int64)
        if k == 1:
            # every factor is (1 - 1/ell)(1 - 1/ell)^-1 = 1 exactly
            yield T, np.ones(len(T))
            continue
        step = max(1, _SERIES_CELLS // (len(T) * k))  # k residues per tuple and prime
        admissible = np.ones(len(T), dtype=bool)
        for a in range(0, len(small), step):
            admissible &= (_nu(T, small[a : a + step]) < small[a : a + step, None]).all(axis=0)
        values = np.zeros(len(T))
        if admissible.any():
            values[admissible] = _products(T[admissible], k, _series_windows(k, L))
        yield T, values


def _products(U: np.ndarray, k: int, windows) -> np.ndarray:
    """The Euler products of the admissible tuple rows of U over the
    primes of windows, as _series_windows yields them.

    A prime beyond a tuple's span sees all k residues, so only the primes
    up to max(span, k) get residue work; every larger prime takes the
    shared factor (1 - k/ell)(1 - 1/ell)^(-k).  The factors of each chunk
    of consecutive primes fill an (m, n) matrix of at most _SERIES_CELLS
    cells, acc carries every tuple's running product into its first row,
    and prod(axis=0) folds each column from the top, so each value is the
    same left-to-right float product in ascending ell whatever windows,
    chunks and block the tuple meets.

    Every factor is positive, so a running product past the float64 range
    stays inf; that raises OverflowError instead of returning inf.
    """
    n = len(U)
    top = max(int((U[:, -1] - U[:, 0]).max()), k)
    # the residues hold k cells for each factor cell
    residue_step, shared_step = max(1, _SERIES_CELLS // (n * k)), max(1, _SERIES_CELLS // n)
    acc = np.ones(n)
    # also silences the windows' (1 - 1/ell)^(-k), computed as they are drawn
    with np.errstate(over="ignore"):
        for primes, power, shared in windows:
            s = int(np.searchsorted(primes, top, side="right"))
            for a in range(0, s, residue_step):
                b = min(a + residue_step, s)
                nu = _nu(U, primes[a:b])
                acc = _fold(acc, (1.0 - nu / primes[a:b, None]) * power[a:b, None])
            for a in range(s, len(primes), shared_step):
                b = min(a + shared_step, len(primes))
                factors = np.empty((b - a, n))
                factors[:] = shared[a:b, None]
                acc = _fold(acc, factors)
            del primes, power, shared  # freed before the next window is sieved
    if not np.isfinite(acc).all():
        raise OverflowError(f"singular series of {k} offsets beyond the float64 range")
    return acc


class HLCount(NamedTuple):
    actual: int
    predicted: float


def offset_groups(H: OffsetTuple) -> list[list[int]]:
    """H's offsets in ascending groups, each within half a sieve window of
    its first: hl_count streams x + h_k integers once per group.

    A tuple of mixed parity has no groups: past n = 2 some n + h_j is even,
    so hl_count streams nothing for it."""
    first, *rest = H.offsets
    if any(h % 2 != first % 2 for h in rest):
        return []
    groups = []
    for h in H.offsets:
        if groups and h - groups[-1][0] <= sieve.SEGMENT_SIZE // 2:
            groups[-1].append(h)
        else:
            groups.append([h])
    return groups


def hl_count(H: OffsetTuple, x: int, L: int | None = None) -> HLCount:
    """Exact count of n <= x with every n + h_j prime, next to the
    Hardy-Littlewood prediction S(H) x / (log x)^k.

    n = 1, 2 are tested one by one.  Past them every n + h_j must be odd,
    so only a tuple of one parity counts more: the odd flags of n + h_j,
    ANDed window by window.  Each group of offsets within half a window
    of its first, g_1, streams the windows of m = n + g_1 and reads its
    offsets at the shifts (h_j - g_1)/2; all take the widest group's reach
    as their overlap, so their windows cover the same n, and a tuple of g
    groups sieves about g x integers."""
    require(x >= 3, "x must be at least 3")
    # the series checks L before any window is sieved
    ss = singular_series(H, L)
    actual = sum(all(is_prime(n + h) for h in H.offsets) for n in (1, 2))
    groups = offset_groups(H)
    if groups:
        reach = max(g[-1] - g[0] for g in groups)
        shifts = [[(h - g[0]) // 2 for h in g] for g in groups]
        streams = [iter_windows(3 + g[0], x + g[0] + 1, reach) for g in groups]
        for seg in streams[0]:
            # the first flags are the window's n, the last reach / 2 reach past them
            acc = seg.odd[: len(seg.odd) - reach // 2].copy()
            for i in range(len(groups)):
                if i:
                    seg = next(streams[i])  # the previous group's window is freed by now
                for s in shifts[i][not i :]:  # the first group's first shift is acc
                    acc &= seg.odd[s : s + len(acc)]
                del seg  # freed before the next window is sieved, not after
            actual += int(np.count_nonzero(acc))
    try:
        predicted = ss.value * x / math.log(x) ** H.k if ss.value else 0.0
    except OverflowError:  # (log x)^k alone passes the float64 range from k = 271 at x = 1e6
        raise OverflowError(
            f"Hardy-Littlewood prediction of {H.k} offsets: (log x)^{H.k} beyond the float64 range"
        ) from None
    return HLCount(actual, predicted)


class GallagherAverage(NamedTuple):
    lhs: float
    rhs: int
    ratio: float


def gallagher_average(k: int, h: int, L: int | None = None) -> GallagherAverage:
    """Average of S over all k-subsets of [1, h] against their plain count.

    lhs sums singular-series values (inadmissible subsets contribute 0),
    rhs is binomial(h, k); the ratio tends to 1 as h grows.  S is
    translation invariant, so each translate (0, t_1, ..., t_{k-1}) is
    evaluated once and weighted by its h - t_{k-1} placements in [1, h]
    (h placements when k = 1).  The translates stream through the series
    kernel in blocks.
    """
    require(k >= 1, "k must be at least 1")
    require(h >= k, "h must be at least k")
    if L is None:
        L = default_truncation(h, k)
    require(L >= max(h, 2 * k), f"L-too-small: need L >= max(h, 2k) = {max(h, 2 * k)}")
    rhs = math.comb(h, k)
    translates = ((0, *rest) for rest in itertools.combinations(range(1, h), k - 1))
    lhs = math.fsum(
        term
        for T, values in _series_blocks(translates, k, L)
        for term in ((h - T[:, -1]) * values).tolist()
    )
    return GallagherAverage(lhs, rhs, lhs / rhs)
