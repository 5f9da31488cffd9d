"""Empirical prime-gap statistics against the random (Cramer) model.

Normalized gaps (p_next - p)/log p are histogrammed against the exponential
density e^{-t}; counts of primes in random unit-mean intervals are compared
with the Poisson weights e^{-1}/k!; a seeded Bernoulli simulation of the
prime indicator reproduces the model directly; and the classical factorial
and primorial composite runs are constructed and verified.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import require
from .sieve import SieveSegment, iter_windows, next_prime, primes_upto

# Reference constants for the limsup of gap/(log p)^2: the random model
# predicts 1; the corrected heuristic gives at least 2 e^{-gamma}.
CRAMER_LIMSUP_CONSTANT = 1.0
CORRECTED_LIMSUP_CONSTANT = 2.0 * math.exp(-np.euler_gamma)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit generator (PCG64 via SeedSequence, splittable)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# The histogram's bins: [BIN_BOUNDS[i], BIN_BOUNDS[i+1]) for the edges 0.0,
# 0.1, ..., 4.0, the last bin [4.0, inf] catching the rest (about 2% of the
# predicted mass), and BIN_MASS[i] the mass of bin i under the density e^{-t}.
BIN_BOUNDS = np.append(np.round(np.arange(0, 41) * 0.1, 10), np.inf)
BIN_MASS = np.append(
    np.exp(-BIN_BOUNDS[:-2]) - np.exp(-BIN_BOUNDS[1:-1]), math.exp(-BIN_BOUNDS[-2]))
BIN_BOUNDS.flags.writeable = False
BIN_MASS.flags.writeable = False


@dataclass(frozen=True)
class GapHistogram:
    """Histogram of normalized gaps (p_next - p)/log p over a run of primes.

    counts[i] counts the gaps in bin i of BIN_BOUNDS, so the bins partition
    [0, inf) and the counts sum to total.  max_gap_over_log_sq is the largest
    gap/(log p)^2 and max_gap_at_p the first p attaining it (NaN and None
    when there are no gaps).
    """

    counts: np.ndarray
    total: int
    max_gap_over_log_sq: float = math.nan
    max_gap_at_p: int | None = None

    def mass_below(self, t: float) -> float:
        """Empirical fraction of normalized gaps <= t (exact bin edges only)."""
        idx = int(np.searchsorted(BIN_BOUNDS, t, side="left"))
        require(idx < len(BIN_BOUNDS) and BIN_BOUNDS[idx] == t, f"{t} is not a bin edge")
        return float(self.counts[:idx].sum() / self.total)


# _histogram_of_runs takes the gaps of this many primes at a time, so its
# float64 temporaries are 256 KiB each, whatever the length of a run; at
# 2^17 (1 MiB, a sieve window's size) gap_histogram(3, 1e8) took 0.28 to
# 0.37 s against 0.20 to 0.22, as freed megabytes went back to the system.
_GAP_BLOCK = 1 << 15


def _histogram_of_runs(runs: Iterable[np.ndarray]) -> GapHistogram:
    """Histogram the gaps of the ascending runs, taken in turn as one
    sequence, each gap normalized by log p at its lower end.

    The last element of each nonempty run is carried to the next, so the
    gap across the seam counts once.  Each value is computed elementwise,
    so taking the sequence in runs and blocks gives the same counts and,
    with a strict > across blocks, the same first p attaining the largest
    gap/(log p)^2 as one pass over it."""
    counts = np.zeros(len(BIN_MASS), dtype=np.int64)
    total, worst, worst_p = 0, math.nan, None

    def add(block: np.ndarray) -> None:
        nonlocal counts, total, worst, worst_p
        gaps = np.diff(block)
        log_p = np.log(block[:-1].astype(np.float64))
        stat = gaps / np.square(log_p)
        i = int(stat.argmax())
        if worst_p is None or stat[i] > worst:
            worst, worst_p = float(stat[i]), int(block[i])
        counts += np.histogram(gaps / log_p, BIN_BOUNDS)[0]
        total += len(gaps)

    last = None
    for run in runs:
        if len(run) == 0:
            continue
        if last is not None:
            add(np.array([last, run[0]]))
        for lo in range(0, len(run) - 1, _GAP_BLOCK):
            add(run[lo : lo + _GAP_BLOCK + 1])
        last = run[-1]
        del run  # freed before the next run is made, not after
    return GapHistogram(counts, total, worst, worst_p)


def gap_histogram(x_lo: int, x_hi: int) -> GapHistogram:
    """Histogram the normalized gap of every prime in [x_lo, x_hi).

    Each prime contributes its true gap: the window is sieved through the
    least prime >= x_hi, the successor of its last prime, one segment's
    primes at a time.  Normalization divides by log p at the lower endpoint.
    """
    require(x_lo >= 3, "x_lo must be at least 3")
    require(x_hi > x_lo, "empty range")
    segments = iter_windows(x_lo, next_prime(x_hi - 1) + 1)
    hist = _histogram_of_runs(map(SieveSegment.primes, segments))
    require(hist.total >= 1, f"no primes in [{x_lo}, {x_hi})")
    return hist


# ---------------------------------------------------------------------------
# interval counts (Poisson comparison)

def poisson_unit_pmf(k: int) -> float:
    """e^{-1} / k!, the Poisson(1) weight."""
    require(k >= 0, "k must be nonnegative")
    return math.exp(-1.0) / math.factorial(k)


@dataclass(frozen=True)
class IntervalCountStats:
    """Observed frequencies of k-prime counts in intervals [n, n + log n].

    n is drawn uniformly from [x, 2x]; fractions maps each observed count k
    to its frequency; exact_mean averages the interval count over every
    integer n in [x, 2x] (computed from the sieve, no sampling).
    """

    n_samples: int
    fractions: dict[int, float]
    empirical_mean: float
    empirical_std: float
    exact_mean: float


def _interval_lengths(starts: np.ndarray) -> np.ndarray:
    """floor(log n) for each start n, so [n, n + log n] ends at n + length."""
    return np.floor(np.log(starts.astype(np.float64))).astype(np.int64)


def _longest_interval(x: int) -> int:
    """T = floor(log 2x), the length of the interval at the largest start 2x."""
    return int(_interval_lengths(np.array([2 * x]))[0])


def _require_interval_args(x: int, n_samples: int, seed: int) -> None:
    require(x >= 100, "x must be at least 100")
    require(n_samples >= 1, "need at least one sample")
    require(seed >= 0, "seed must be nonnegative")


# _interval_stats counts this many sorted starts (1 MiB of int64) at a time
_START_BLOCK = 1 << 17


def _interval_stats(
    windows: Iterable[tuple[int, int, np.ndarray]], x: int, n_samples: int, seed: int
) -> IntervalCountStats:
    """The interval statistics from windows (lo, hi, primes), where primes
    holds the ascending (simulated or real) primes of [lo, hi).

    T = floor(log 2x) bounds every interval length, so a window holds
    every interval starting in [lo, hi - T); these start ranges, cut to
    [x, 2x], must be disjoint and cover [x, 2x].

    The interval of n reaches n + t exactly when n >= b_t, the least start
    in [x, 2x] of length floor(log n) >= t, found by bisection since the
    length never decreases in n.  So floor(log n) + 1 is the number of b_t
    <= n, and the count of n is the number of primes in [n, n + that), two
    binary searches over the primes, taken a block of sorted starts at a
    time.  The mean and the variance are exact rationals in the integer
    moments sum k freq[k] and sum k^2 freq[k] of the count frequencies,
    each rounded once (int / int).  The exact mean swaps the two sums,
    counting the primes n + t for n in [b_t, 2x].
    """
    T = _longest_interval(x)
    first = np.array([
        bisect.bisect_left(
            range(2 * x + 1), t, lo=x, key=lambda n: _interval_lengths(np.array([n]))[0]
        )
        for t in range(T + 1)
    ])
    starts = make_rng(seed).integers(x, 2 * x + 1, size=n_samples)
    starts.sort()
    freq = np.zeros(T + 2, dtype=np.int64)
    total = 0
    for lo, hi, primes in windows:
        stop = min(hi - T, 2 * x + 1)
        i, j = np.searchsorted(starts, [lo, stop]).tolist()
        for a in range(i, j, _START_BLOCK):
            n = starts[a : min(a + _START_BLOCK, j)]
            ends = n + np.searchsorted(first, n, side="right")
            k = np.searchsorted(primes, ends) - np.searchsorted(primes, n)
            freq += np.bincount(k, minlength=T + 2)
        t = np.flatnonzero(first < stop)
        low = np.maximum(first[t], lo) + t
        total += int((np.searchsorted(primes, stop + t) - np.searchsorted(primes, low)).sum())
        del primes  # freed before the next window is sieved, not after
    fractions = {int(k): float(freq[k] / n_samples) for k in np.flatnonzero(freq)}
    s1 = sum(k * f for k, f in enumerate(freq.tolist()))
    s2 = sum(k * k * f for k, f in enumerate(freq.tolist()))
    return IntervalCountStats(
        n_samples=n_samples,
        fractions=fractions,
        empirical_mean=s1 / n_samples,
        empirical_std=math.sqrt((n_samples * s2 - s1 * s1) / n_samples**2),
        exact_mean=total / (x + 1),
    )


def interval_counts_from_indicator(
    ind: np.ndarray, x: int, n_samples: int, seed: int
) -> IntervalCountStats:
    """Interval-count statistics over an arbitrary 0/1 prime indicator.

    ind[m] marks m as (simulated or real) prime; sampled starts n come from
    [x, 2x] and must satisfy n + log n < len(ind).  The positions of the
    whole indicator's primes are the one window of _interval_stats.
    """
    _require_interval_args(x, n_samples, seed)
    require(2 * x + int(math.log(2 * x)) + 1 < len(ind), "indicator too short")
    return _interval_stats([(0, len(ind), np.flatnonzero(ind))], x, n_samples, seed)


def interval_count_distribution(x: int, n_samples: int, seed: int) -> IntervalCountStats:
    """Frequencies of k primes in [n, n + log n] for random n in [x, 2x].

    The starts [x, 2x] are sieved one window at a time, each extended by
    the longest interval, floor(log 2x), and read as its primes."""
    _require_interval_args(x, n_samples, seed)
    windows = iter_windows(x, 2 * x + 1, _longest_interval(x))
    return _interval_stats(
        map(lambda w: (w.lo, w.hi, w.primes()), windows), x, n_samples, seed)


# ---------------------------------------------------------------------------
# Cramer-model simulation

@dataclass(frozen=True)
class CramerConfig:
    """Length and seed of one simulated prime-indicator stream."""

    n_max: int
    seed: int = 0

    def __post_init__(self):
        require(self.n_max >= 3, "n_max must be at least 3")
        require(self.seed >= 0, "seed must be nonnegative")


# A chunk of the Cramer stream holds _CRAMER_CHUNK probabilities, 1 MiB of
# float64, and its draws beside them.
_CRAMER_CHUNK = 1 << 17


def _cramer_chunks(cfg: CramerConfig) -> Iterator[tuple[int, np.ndarray, float, float]]:
    """The seeded stream X(n) for 3 <= n <= n_max, one chunk at a time.

    Yields (lo, hits, mean, var): hits[i] is X(lo + i), and mean and var
    are the sums of p and of p(1 - p) over the chunk's probabilities
    p = 1/log(lo + i).  The random stream is consumed in index order, so
    the draws do not depend on the chunk size; the fixed size fixes how
    the sums are split, so every replay gives the same floats."""
    rng = make_rng(cfg.seed)
    for lo in range(3, cfg.n_max + 1, _CRAMER_CHUNK):
        p = np.arange(lo, min(lo + _CRAMER_CHUNK, cfg.n_max + 1), dtype=np.float64)
        # in place, so the chunk holds one float64 array, not two
        np.log(p, out=p)
        np.reciprocal(p, out=p)
        hits = rng.random(len(p)) < p
        yield lo, hits, float(p.sum()), float((p * (1.0 - p)).sum())


@dataclass(frozen=True)
class CramerResult:
    """A simulated indicator stream and its derived gap histogram.

    indicators[n] is the simulated primality of n (index 0 unused);
    X(1) = 0 and X(2) = 1 are fixed, X(n) for n >= 3 is an independent
    Bernoulli(1/log n) draw from the seeded generator.  The stream is not
    kept: indicators replays it from config on every read.
    """

    config: CramerConfig
    simulated_count: int
    expected_count: float
    count_sigma: float
    histogram: GapHistogram

    @property
    def indicators(self) -> np.ndarray:
        ind = np.zeros(self.config.n_max + 1, dtype=bool)
        ind[2] = True
        for lo, hits, _, _ in _cramer_chunks(self.config):
            ind[lo : lo + len(hits)] = hits
        return ind


def cramer_simulate(cfg: CramerConfig) -> CramerResult:
    """Simulate X(n) over n <= n_max; deterministic for a fixed seed.

    The derived histogram normalizes consecutive simulated-prime gaps by
    log p, fed one chunk's positions at a time after the fixed prime 2;
    the final simulated prime has no successor inside the stream and
    contributes no gap.
    """
    expected_terms = []
    var_terms = []

    def positions():
        yield np.array([2])
        for lo, hits, mean, var in _cramer_chunks(cfg):
            expected_terms.append(mean)
            var_terms.append(var)
            yield np.flatnonzero(hits) + lo

    hist = _histogram_of_runs(positions())
    return CramerResult(
        config=cfg,
        simulated_count=hist.total + 1,
        expected_count=1.0 + math.fsum(expected_terms),
        count_sigma=math.sqrt(math.fsum(var_terms)),
        histogram=hist,
    )


# ---------------------------------------------------------------------------
# long composite runs

@dataclass(frozen=True)
class LongGapReport:
    """A guaranteed composite run seeded at N + 2 and its observed extent.

    construction 'factorial' takes N = m!; 'primorial' takes N as the
    product of the primes up to m.  Either way N+2, ..., N+m are composite
    (each shares a factor at most m with N), a run of m - 1 integers.
    observed_run_over_log_sq scales the observed run like the limsup
    statistic gap/(log p)^2, with p = run_start.  rankin_bound_at_N
    evaluates the record lower-bound expression at N (NaN when
    an iterated log is not positive); the limsup constants are the
    reference values for gap/(log p)^2.
    """

    construction: str
    m: int
    N: int
    run_start: int
    guaranteed_run: int
    observed_run: int
    observed_run_over_log_sq: float
    rankin_bound_at_N: float
    cramer_limsup_constant: float = CRAMER_LIMSUP_CONSTANT
    corrected_limsup_constant: float = CORRECTED_LIMSUP_CONSTANT


_FACTORIAL_MAX = 20   # 21! exceeds 64 bits
_PRIMORIAL_MAX = 52   # including the prime 53 exceeds 64 bits


def long_gap_construct(kind: str, m: int) -> LongGapReport:
    """Build the factorial or primorial composite run for a given m.

    Verifies directly that every integer in [N+2, N+m] has a prime factor
    at most m, then extends forward to the first prime to report the run
    actually observed.
    """
    require(kind in ("factorial", "primorial"), f"unknown construction {kind!r}")
    require(m >= 2, "m must be at least 2")
    if kind == "factorial" and m > _FACTORIAL_MAX:
        raise OverflowError(f"{m}! exceeds 64 bits (max m = {_FACTORIAL_MAX})")
    if kind == "primorial" and m > _PRIMORIAL_MAX:
        raise OverflowError(f"primorial({m}) exceeds 64 bits (max m = {_PRIMORIAL_MAX})")
    small = primes_upto(m).tolist()
    N = math.factorial(m) if kind == "factorial" else math.prod(small)
    for j in range(2, m + 1):
        if not any((N + j) % p == 0 for p in small):
            raise AssertionError(f"{N + j} unexpectedly has no factor <= {m}")
    run_start = N + 2
    q = next_prime(N + 1)
    observed = q - run_start
    # the record lower bound l1 l2 l4 / l3^2, with li the i-times iterated
    # log of N; NaN unless all four are positive, which needs N > e^(e^e)
    l1 = math.log(float(N))  # positive, as N >= 2
    l2 = math.log(l1)
    l3 = math.log(l2) if l2 > 0 else math.nan
    l4 = math.log(l3) if l3 > 1 else math.nan
    return LongGapReport(
        construction=kind,
        m=m,
        N=N,
        run_start=run_start,
        guaranteed_run=m - 1,
        observed_run=observed,
        observed_run_over_log_sq=observed / math.log(run_start) ** 2,
        rankin_bound_at_N=l1 * l2 * l4 / (l3 * l3),
    )

