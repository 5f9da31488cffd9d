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
from dataclasses import dataclass
import numpy as np

from .errors import PreconditionError, require
from .sieve import next_prime, prime_indicator, primes_between, primes_upto

# Reference constants for the limsup of gap/(log p)^2: the random model
# predicts 1; the corrected heuristic gives at least 2 e^{-gamma}.
CRAMER_LIMSUP_CONSTANT = 1.0
CORRECTED_LIMSUP_CONSTANT = 2.0 * math.exp(-np.euler_gamma)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit generator (PCG64 via SeedSequence, splittable)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def default_bin_edges() -> np.ndarray:
    """Edges 0.0, 0.1, ..., 4.0; the overflow bin catches the rest
    (about 2% of the predicted mass)."""
    return np.round(np.arange(0, 41) * 0.1, 10)


def exponential_bin_mass(bin_edges: np.ndarray) -> np.ndarray:
    """Predicted mass per bin for the density e^{-t}, overflow last."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    masses = np.empty(len(edges))
    masses[:-1] = np.exp(-edges[:-1]) - np.exp(-edges[1:])
    masses[-1] = math.exp(-edges[-1])
    return masses


@dataclass(frozen=True)
class GapHistogram:
    """Histogram of normalized gaps (p_next - p)/log p over a run of primes.

    counts[i] covers [bin_edges[i], bin_edges[i+1]) and counts[-1] is the
    overflow bin for gaps at or beyond the last edge, so the bins partition
    [0, inf) and the counts sum to total.  max_gap_over_log_sq is the largest
    gap/(log p)^2 and max_gap_at_p the first p attaining it (NaN and None
    when there are no gaps).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int
    max_gap_over_log_sq: float = math.nan
    max_gap_at_p: int | None = None

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.total

    def mass_below(self, t: float) -> float:
        """Empirical fraction of normalized gaps <= t (exact bin edges only)."""
        idx = int(np.searchsorted(self.bin_edges, t, side="left"))
        require(
            idx < len(self.bin_edges) and self.bin_edges[idx] == t,
            f"{t} is not a bin edge",
        )
        return float(self.counts[:idx].sum() / self.total)


# _histogram_of_sequence takes the gaps of this many primes at a time, so its
# float64 temporaries are 1 MiB each, not the size of the whole sequence.
_GAP_BLOCK = 1 << 17


def _uniform_bins(edges: np.ndarray):
    """The bin index function of uniform edges from 0: i for t in
    [edges[i], edges[i+1]), and len(edges) - 1 for t >= edges[-1].

    t * scale lands within one bin of t's own, so one step down and one
    step up against the edges themselves make it exact; this gives the
    counts of searchsorted(edges, t, side="right") - 1 without its binary
    search."""
    last = len(edges) - 1
    scale = last / edges[-1]
    require(
        edges[0] == 0.0
        and np.allclose(edges * scale, np.arange(last + 1), rtol=0.0, atol=1e-6),
        "bin edges must be uniform from 0",
    )
    ext = np.append(edges, np.inf)

    def bins(t: np.ndarray) -> np.ndarray:
        idx = np.minimum(t * scale, last).astype(np.intp)
        idx -= t < edges[idx]
        idx += t >= ext[idx + 1]
        return idx

    return bins


def _histogram_of_sequence(seq: np.ndarray, edges: np.ndarray) -> GapHistogram:
    """Histogram the gaps of the ascending seq, each normalized by log p.

    Each value is computed elementwise, so taking the sequence in blocks
    gives the same counts and, with a strict > across blocks, the same
    first p attaining the largest gap/(log p)^2 as one pass over it."""
    counts = np.zeros(len(edges), dtype=np.int64)
    bins = _uniform_bins(edges)
    worst, worst_p = math.nan, None
    for lo in range(0, len(seq) - 1, _GAP_BLOCK):
        block = seq[lo : lo + _GAP_BLOCK + 1]
        gaps = np.diff(block)
        log_p = np.log(block[:-1].astype(np.float64))
        # gap / (log p)^2 and then gap / log p share one buffer
        stat = np.square(log_p)
        np.divide(gaps, stat, out=stat)
        i = int(stat.argmax())
        if worst_p is None or stat[i] > worst:
            worst, worst_p = float(stat[i]), int(block[i])
        normalized = np.divide(gaps, log_p, out=stat)
        counts += np.bincount(bins(normalized), minlength=len(edges))
    return GapHistogram(edges, counts, len(seq) - 1, worst, worst_p)


def gap_histogram(x_lo: int, x_hi: int) -> GapHistogram:
    """Histogram the normalized gap of every prime in [x_lo, x_hi).

    Each prime contributes its true gap: the window is sieved through the
    least prime >= x_hi, the successor of its last prime.  Normalization
    divides by log p at the lower endpoint.
    """
    require(x_lo >= 3, "x_lo must be at least 3")
    require(x_hi > x_lo, "empty range")
    seq = primes_between(x_lo, next_prime(x_hi - 1) + 1)
    require(len(seq) >= 2, f"no primes in [{x_lo}, {x_hi})")
    return _histogram_of_sequence(seq, default_bin_edges())


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

    def mean_sigma(self) -> float:
        """Standard error of the empirical mean."""
        return self.empirical_std / math.sqrt(self.n_samples)


def _interval_lengths(starts: np.ndarray) -> np.ndarray:
    """floor(log n) for each start n, so [n, n + log n] ends at n + length."""
    return np.floor(np.log(starts.astype(np.float64))).astype(np.int64)


def interval_counts_from_indicator(
    ind: np.ndarray, x: int, n_samples: int, seed: int
) -> IntervalCountStats:
    """Interval-count statistics over an arbitrary 0/1 prime indicator.

    ind[m] marks m as (simulated or real) prime; sampled starts n come from
    [x, 2x] and must satisfy n + log n < len(ind).  Each count is a sum of
    shifted slices, ind[n + t] for t = 0..floor(log n), so no prefix-count
    table is built.  The exact mean swaps the two sums: the starts whose
    interval reaches n + t form a suffix [b, 2x] of [x, 2x], found by
    bisection since the length never decreases in n.
    """
    require(x >= 100, "x must be at least 100")
    require(n_samples >= 1, "need at least one sample")
    require(seed >= 0, "seed must be nonnegative")
    require(2 * x + int(math.log(2 * x)) + 1 < len(ind), "indicator too short")
    rng = make_rng(seed)
    starts = rng.integers(x, 2 * x + 1, size=n_samples)
    length = _interval_lengths(starts)
    counts = np.zeros(n_samples, dtype=np.int64)
    total = 0
    for t in range(int(_interval_lengths(np.array([2 * x]))[0]) + 1):
        counts += ind[starts + t] & (length >= t)
        b = bisect.bisect_left(
            range(2 * x + 1), t, lo=x, key=lambda n: _interval_lengths(np.array([n]))[0]
        )
        total += int(np.count_nonzero(ind[b + t : 2 * x + 1 + t]))
    ks, freq = np.unique(counts, return_counts=True)
    fractions = {int(k): float(c / n_samples) for k, c in zip(ks, freq)}
    return IntervalCountStats(
        n_samples=n_samples,
        fractions=fractions,
        empirical_mean=float(counts.mean()),
        empirical_std=float(counts.std()),
        exact_mean=total / (x + 1),
    )


def interval_count_distribution(x: int, n_samples: int, seed: int) -> IntervalCountStats:
    """Frequencies of k primes in [n, n + log n] for random n in [x, 2x]."""
    require(x >= 100, "x must be at least 100")
    require(seed >= 0, "seed must be nonnegative")
    hi = 2 * x + int(math.log(2 * x)) + 2
    ind = prime_indicator(0, hi)
    return interval_counts_from_indicator(ind, x, n_samples, seed)


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


@dataclass(frozen=True)
class CramerResult:
    """A simulated indicator stream and its derived gap histogram.

    indicators[n] is the simulated primality of n (index 0 unused);
    X(1) = 0 and X(2) = 1 are fixed, X(n) for n >= 3 is an independent
    Bernoulli(1/log n) draw from the seeded generator.
    """

    indicators: np.ndarray
    simulated_count: int
    expected_count: float
    count_sigma: float
    histogram: GapHistogram


_CRAMER_CHUNK = 1 << 20


def cramer_simulate(cfg: CramerConfig) -> CramerResult:
    """Simulate X(n) over n <= n_max; deterministic for a fixed seed.

    The random stream is consumed in index order, so results do not depend
    on internal chunking.  The derived histogram normalizes consecutive
    simulated-prime gaps by log p; the final simulated prime has no
    successor inside the stream and contributes no gap.
    """
    n = cfg.n_max
    ind = np.zeros(n + 1, dtype=bool)
    ind[2] = True
    rng = make_rng(cfg.seed)
    expected_terms = []
    var_terms = []
    for lo in range(3, n + 1, _CRAMER_CHUNK):
        hi = min(lo + _CRAMER_CHUNK, n + 1)
        probs = 1.0 / np.log(np.arange(lo, hi, dtype=np.float64))
        ind[lo:hi] = rng.random(hi - lo) < probs
        expected_terms.append(float(probs.sum()))
        var_terms.append(float((probs * (1.0 - probs)).sum()))
    expected = 1.0 + math.fsum(expected_terms)
    sigma = math.sqrt(math.fsum(var_terms))
    positions = np.flatnonzero(ind)
    edges = default_bin_edges()
    if len(positions) >= 2:
        hist = _histogram_of_sequence(positions, edges)
    else:
        hist = GapHistogram(edges, np.zeros(len(edges), dtype=np.int64), 0)
    return CramerResult(
        indicators=ind,
        simulated_count=int(len(positions)),
        expected_count=expected,
        count_sigma=sigma,
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
    evaluates the record lower-bound expression at N with c = 1 (NaN when
    the iterated logs are undefined); the limsup constants are the
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
    try:
        rb = rankin_bound(float(N), 1.0)
    except PreconditionError:
        rb = math.nan
    return LongGapReport(
        construction=kind,
        m=m,
        N=N,
        run_start=run_start,
        guaranteed_run=m - 1,
        observed_run=observed,
        observed_run_over_log_sq=observed / math.log(run_start) ** 2,
        rankin_bound_at_N=rb,
    )


def rankin_bound(p: float, c: float) -> float:
    """The record long-gap lower bound

        c * log p * (log log p) * (log log log log p) / (log log log p)^2,

    valid once all four iterated logs are positive (p > e^(e^e))."""
    require(p > 1, "p must exceed 1")
    l1 = math.log(p)
    l2 = math.log(l1) if l1 > 0 else math.nan
    l3 = math.log(l2) if l2 > 0 else math.nan
    require(not math.isnan(l3) and l3 > 0, "iterated logs undefined: need p > e^(e^e)")
    l4 = math.log(l3)
    require(l4 > 0, "iterated logs not positive: need p > e^(e^e)")
    return c * l1 * l2 * l4 / (l3 * l3)
