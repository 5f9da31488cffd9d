import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primegaps import CramerConfig, OffsetTuple, cramer_simulate, gap_histogram
from primegaps import gaps, sieve
from primegaps.errors import PreconditionError
from primegaps.gaps import (
    BIN_BOUNDS,
    BIN_MASS,
    interval_count_distribution,
    long_gap_construct,
    poisson_unit_pmf,
)
from primegaps.sieve import next_prime, primes_between
from primegaps.gaps import interval_counts_from_indicator, make_rng
from primegaps.sieve import prime_indicator

from conftest import naive_factorize


def test_default_edges_capture_most_predicted_mass():
    # the ten bins below t = 1 hold 1 - e^{-1} of the mass, and all 41 hold it all
    assert BIN_MASS[:10].sum() == pytest.approx(1 - math.exp(-1))
    assert BIN_MASS[:10].sum() == pytest.approx(0.6321, abs=1e-4)
    assert BIN_MASS.sum() == pytest.approx(1.0)
    assert BIN_MASS[-1] == pytest.approx(math.exp(-4.0))
    assert BIN_MASS[:-1].sum() >= 0.98


def test_bin_constants_are_read_only():
    for constant in (BIN_BOUNDS, BIN_MASS):
        with pytest.raises(ValueError):
            constant[0] = 1.0
        assert constant[0] != 1.0


def test_histogram_fractions_partition():
    hist = gap_histogram(3, 10**5)
    assert hist.counts.sum() == hist.total
    assert (hist.counts / hist.total).sum() == pytest.approx(1.0)


def test_histogram_conservation_against_iter_gaps():
    hist = gap_histogram(3, 10**5)
    ps = primes_between(3, 10**5).tolist()
    ps.append(next_prime(ps[-1]))
    gaps = [(p, q - p) for p, q in zip(ps, ps[1:])]
    assert hist.total == len(gaps)
    worst_p, worst_gap = max(gaps, key=lambda g: g[1] / math.log(g[0]) ** 2)
    assert hist.max_gap_over_log_sq == worst_gap / math.log(worst_p) ** 2
    assert hist.max_gap_at_p == worst_p


# the finite bin edges 0.0, ..., 4.0; the referees put everything past the
# last one in the overflow bin
EDGES = BIN_BOUNDS[:-1]


def searchsorted_bins(t):
    """Referee: the bin of each t by binary search, overflow last."""
    return np.minimum(np.searchsorted(EDGES, t, side="right") - 1, len(EDGES) - 1)


def one_pass_histogram(seq):
    """Referee: counts, total, largest gap/(log p)^2 and its first p, each
    from the whole sequence at once."""
    diffs = np.diff(seq)
    log_p = np.log(seq[:-1].astype(np.float64))
    stat = diffs / np.square(log_p)
    i = int(stat.argmax())
    counts = np.bincount(searchsorted_bins(diffs / log_p), minlength=len(EDGES))
    return counts.tolist(), len(diffs), float(stat[i]), int(seq[i])


def histogram_tuple(hist):
    return hist.counts.tolist(), hist.total, hist.max_gap_over_log_sq, hist.max_gap_at_p


@pytest.mark.parametrize("block", [1, 2, 7, 1000])
def test_histogram_blocks_match_one_pass(block, monkeypatch):
    seq = primes_between(3, 10**5)
    monkeypatch.setattr(gaps, "_GAP_BLOCK", block)
    # fed in uneven runs, some empty and some of one prime, so gaps also
    # cross the seams between runs
    runs = np.split(seq, [0, 1, 5, 5, 6, 1000, 1001, 4000])
    assert histogram_tuple(gaps._histogram_of_runs(runs)) == one_pass_histogram(seq)


@pytest.mark.parametrize("size", [8, 1000, 1 << 10])
@pytest.mark.parametrize("x_lo, x_hi", [(3, 50_000), (1000, 20_011), (3, 4), (113, 120)])
def test_gap_histogram_carries_across_segment_seams(x_lo, x_hi, size, sieve_window):
    # segments of 8 integers are often empty, and [113, 120) holds the one
    # prime 113, whose gap reaches 127 in a later segment
    seq = primes_between(x_lo, next_prime(x_hi - 1) + 1)
    expected = one_pass_histogram(seq)
    sieve_window(size)
    assert histogram_tuple(gap_histogram(x_lo, x_hi)) == expected


@given(data=st.data())
def test_histogram_with_an_inf_edge_bins_like_searchsorted(data):
    # _histogram_of_runs counts with np.histogram over BIN_BOUNDS, the
    # edges and inf: half-open bins, the last one [4.0, inf]
    near_edge = st.builds(
        lambda e, k: float(e + k * np.spacing(e if e else 1.0)),
        st.sampled_from(EDGES.tolist()), st.integers(-4, 4),
    )
    drawn = data.draw(st.lists(near_edge | st.floats(0.0, 1e9), max_size=50))
    # every edge, the next float each side of it, and values past the last
    t = np.concatenate([
        EDGES, np.nextafter(EDGES, -np.inf), np.nextafter(EDGES, np.inf),
        [0.0, 4.0, 5.0, 1e9], np.asarray(drawn, dtype=np.float64),
    ])
    counts = np.histogram(t, BIN_BOUNDS)[0]
    # np.histogram drops values below 0, which no normalized gap takes
    expected = np.bincount(searchsorted_bins(t[t >= 0]), minlength=len(EDGES))
    assert counts.tolist() == expected.tolist()


def test_histogram_validation():
    with pytest.raises(PreconditionError):
        gap_histogram(2, 100)                 # x_lo below 3
    with pytest.raises(PreconditionError, match=r"no primes in \[24, 29\)"):
        gap_histogram(24, 29)


def test_histogram_overflow_bin():
    # one gap: 1327 -> 1361, normalized 34/log 1327 ~ 4.73, past the last edge 4.0
    hist = gap_histogram(1327, 1328)
    assert hist.total == 1
    assert hist.counts[-1] == 1


def test_histogram_refuses_successor_past_int64_before_sieving(monkeypatch):
    # 2^63 - 25 is the last prime below 2^63, so its successor fits no int64
    def refuse(limit):
        raise AssertionError("sieved a window whose successor overflows int64")

    monkeypatch.setattr(sieve, "_base_primes", refuse)
    with pytest.raises(PreconditionError, match="64-bit"):
        gap_histogram(2**63 - 30, 2**63 - 20)


# maximal-gap records below 1e7 as (gap, p): OEIS A005250 / A002386
MAXIMAL_GAPS = [
    (1, 2), (2, 3), (4, 7), (6, 23), (8, 89), (14, 113), (18, 523), (20, 887),
    (22, 1129), (34, 1327), (36, 9551), (44, 15683), (52, 19609), (72, 31397),
    (86, 155921), (96, 360653), (112, 370261), (114, 492113), (118, 1349533),
    (132, 1357201), (148, 2010733), (154, 4652353),
]


def test_maximal_gap_records_from_iter_gaps():
    ps = primes_between(2, 10**7).tolist()
    records = []
    for p, q in zip(ps, ps[1:]):
        if not records or q - p > records[-1][0]:
            records.append((q - p, p))
    assert records == MAXIMAL_GAPS


def test_maximal_gap_records_from_histogram():
    # no gap from a record up to the next one exceeds the record, and log p
    # grows, so the record is its window's largest gap/(log p)^2; the next
    # record after 4652353 is 180 at 17051707
    ends = [p for _, p in MAXIMAL_GAPS[2:]] + [10**7]
    for (gap, p), end in zip(MAXIMAL_GAPS[1:], ends):
        hist = gap_histogram(p, end)
        assert hist.max_gap_at_p == p
        assert hist.max_gap_over_log_sq == gap / math.log(p) ** 2


def test_gap_mass_near_exponential(baseline):
    hist = gap_histogram(3, 10**6)
    mass = hist.mass_below(1.0)
    baseline.check("gap_mass_below_1_at_1e6", mass, rel_tol=1e-12)
    assert mass == pytest.approx(1 - math.exp(-1), abs=0.06)


# ---------------------------------------------------------------------------
# interval counts

def test_poisson_prediction_values():
    assert poisson_unit_pmf(0) == pytest.approx(math.exp(-1))
    assert poisson_unit_pmf(0) == pytest.approx(0.3679, abs=1e-4)
    assert poisson_unit_pmf(3) == pytest.approx(math.exp(-1) / 6)


def test_interval_fractions_partition():
    stats = interval_count_distribution(1000, 5000, seed=7)
    assert sum(stats.fractions.values()) == pytest.approx(1.0)


def test_interval_mean_within_4_sigma_of_exact():
    stats = interval_count_distribution(10**5, 20_000, seed=3)
    sigma = stats.empirical_std / math.sqrt(stats.n_samples)  # standard error of the mean
    assert abs(stats.empirical_mean - stats.exact_mean) <= 4 * sigma


def test_interval_real_primes_baseline(baseline):
    stats = interval_count_distribution(10**7, 10**6, seed=0)
    k1 = stats.fractions[1]
    baseline.check("interval_k1_fraction_x1e7", k1, rel_tol=1e-12)
    # real primes are visibly sub-Poissonian here: the k=1 weight runs
    # about 0.057 above e^{-1}; keep a loose envelope and the exact baseline
    assert k1 == pytest.approx(math.exp(-1), abs=0.08)
    print(f"real-prime interval k=1 fraction at 1e7: {k1:.4f} vs e^-1 = {math.exp(-1):.4f}")


def test_interval_determinism():
    a = interval_count_distribution(10**4, 1000, seed=11)
    b = interval_count_distribution(10**4, 1000, seed=11)
    assert a.fractions == b.fractions


def prefix_count_referee(ind, x, n_samples, seed):
    """Interval statistics from a prefix-count table over the whole
    indicator: count(n) = cum[n + L] - cum[n - 1] with L = floor(log n),
    and the exact mean taken over every start in [x, 2x].  The std is the
    square root of the exact rational variance of the drawn counts,
    sum (n k - S)^2 / n^3 with S their sum, rounded once before it."""
    cum = np.cumsum(ind, dtype=np.int32)

    def counts(ns):
        length = np.floor(np.log(ns.astype(np.float64))).astype(np.int64)
        return cum[ns + length] - cum[ns - 1]

    drawn = counts(make_rng(seed).integers(x, 2 * x + 1, size=n_samples))
    ks, freq = np.unique(drawn, return_counts=True)
    fractions = {int(k): float(c / n_samples) for k, c in zip(ks, freq)}
    total = sum(
        int(counts(np.arange(lo, min(lo + 2**20, 2 * x + 1))).sum())
        for lo in range(x, 2 * x + 1, 2**20)
    )
    S = int(drawn.sum())
    variance = Fraction(sum((n_samples * k - S) ** 2 for k in drawn.tolist()), n_samples**3)
    return fractions, float(drawn.mean()), math.sqrt(variance), total / (x + 1)


def interval_stats_tuple(ind, x, n_samples, seed):
    s = interval_counts_from_indicator(ind, x, n_samples, seed)
    return s.fractions, s.empirical_mean, s.empirical_std, s.exact_mean


@functools.cache
def referee_indicator(kind):
    """A real (bool or int64 0/1) or simulated indicator covering x <= e^13."""
    span = 2 * int(math.exp(13)) + 40
    if kind == "cramer":
        return cramer_simulate(CramerConfig(n_max=span, seed=0)).indicators
    ind = prime_indicator(0, span)
    return ind if kind == "bool" else ind.astype(np.int64)


@st.composite
def straddling_x(draw):
    """x with e^t in [x, 2x], often within a few integers of either end."""
    t = draw(st.integers(min_value=5, max_value=13))
    lo, hi = max(100, math.ceil(math.exp(t) / 2)), math.floor(math.exp(t))
    near = st.sampled_from([lo, hi]).flatmap(
        lambda e: st.integers(max(100, e - 3), e + 3))
    return draw(st.one_of(near, st.integers(lo, hi)))


@settings(max_examples=60, deadline=None)
@given(
    straddling_x(),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["bool", "int", "cramer"]),
    st.booleans(),
)
def test_interval_stats_equal_prefix_count_referee(x, n_samples, seed, kind, trim):
    ind = referee_indicator(kind)
    if trim:   # the shortest indicator the precondition admits
        ind = ind[: 2 * x + int(math.log(2 * x)) + 2]
    assert interval_stats_tuple(ind, x, n_samples, seed) == prefix_count_referee(
        ind, x, n_samples, seed)


@pytest.mark.parametrize("x, n_samples, seed", [
    (2 * 10**7, 10**5, 0), (100, 1000, 3), (100, 300_000, 3)])
def test_interval_stats_equal_prefix_count_referee_at_cli_sizes(x, n_samples, seed):
    # [2e7, 4e7] contains e^17, so the interval length steps up inside it;
    # 300000 draws fill several blocks of sorted starts in one window
    ind = prime_indicator(0, 2 * x + int(math.log(2 * x)) + 2)
    assert interval_stats_tuple(ind, x, n_samples, seed) == prefix_count_referee(
        ind, x, n_samples, seed)


@pytest.mark.parametrize("size", [18, 1000, 1 << 10])
def test_interval_stats_stream_across_window_seams(size, sieve_window):
    # [5000, 10000] holds e^9, so b_9 falls inside a window; 60000 draws
    # land on every start, so on both sides of every seam; windows of 18
    # integers span 9 starts, no more than their overlap of
    # floor(log 10000) = 9
    x, n_samples, seed = 5000, 60_000, 1
    assert len(np.unique(make_rng(seed).integers(x, 2 * x + 1, size=n_samples))) == x + 1
    ind = prime_indicator(0, 2 * x + int(math.log(2 * x)) + 2)
    expected = prefix_count_referee(ind, x, n_samples, seed)
    sieve_window(size)
    stats = interval_count_distribution(x, n_samples, seed)
    got = stats.fractions, stats.empirical_mean, stats.empirical_std, stats.exact_mean
    assert got == expected


def test_negative_seed_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("sieved before the seed was checked")

    monkeypatch.setattr(gaps, "iter_windows", refuse)
    with pytest.raises(PreconditionError, match="seed"):
        interval_count_distribution(1000, 10, seed=-1)
    with pytest.raises(PreconditionError, match="seed"):
        interval_counts_from_indicator(np.zeros(3000, dtype=bool), 1000, 10, seed=-1)
    with pytest.raises(PreconditionError, match="seed"):
        CramerConfig(n_max=1000, seed=-1)


# ---------------------------------------------------------------------------
# Cramer simulation

def test_cramer_fixed_values():
    res = cramer_simulate(CramerConfig(n_max=1000, seed=5))
    assert not res.indicators[0] and not res.indicators[1]
    assert res.indicators[2]


def test_cramer_determinism():
    a = cramer_simulate(CramerConfig(n_max=5000, seed=42))
    b = cramer_simulate(CramerConfig(n_max=5000, seed=42))
    assert np.array_equal(a.indicators, b.indicators)


def whole_array_cramer(n_max, seed):
    """Referee: every draw of the stream at once, 1/log n against one
    uniform per n >= 3 in index order."""
    ind = np.zeros(n_max + 1, dtype=bool)
    ind[2] = True
    probs = 1.0 / np.log(np.arange(3, n_max + 1, dtype=np.float64))
    ind[3:] = make_rng(seed).random(n_max - 2) < probs
    return ind


@pytest.mark.parametrize("chunk", [7, 1000, 1 << 10])
@pytest.mark.parametrize("n_max, seed", [(20_000, 0), (20_000, 3), (3, 1), (10, 2)])
def test_cramer_chunks_replay_the_whole_array(n_max, seed, chunk, monkeypatch):
    ind = whole_array_cramer(n_max, seed)
    positions = np.flatnonzero(ind)
    monkeypatch.setattr(gaps, "_CRAMER_CHUNK", chunk)
    res = cramer_simulate(CramerConfig(n_max=n_max, seed=seed))
    assert np.array_equal(res.indicators, ind)
    assert res.simulated_count == len(positions)
    if len(positions) >= 2:
        assert histogram_tuple(res.histogram) == one_pass_histogram(positions)
    else:
        assert res.histogram.total == 0 and res.histogram.max_gap_at_p is None


def test_cramer_expected_count_formula():
    res = cramer_simulate(CramerConfig(n_max=1000, seed=1))
    expected = 1 + sum(1 / math.log(n) for n in range(3, 1001))
    assert res.expected_count == pytest.approx(expected, rel=1e-12)
    var = sum((1 / math.log(n)) * (1 - 1 / math.log(n)) for n in range(3, 1001))
    assert res.count_sigma == pytest.approx(math.sqrt(var), rel=1e-12)


def test_cramer_sums_match_fsum_across_chunks():
    # expected_count and count_sigma add the chunks' numpy sums with
    # math.fsum; against math.fsum of every term, over five whole chunks
    # and a short one, they agree within the roundings of np.log and of
    # numpy's pairwise sum of a chunk (under 40 unit roundoffs), and in
    # the 12 significant digits the CLI prints
    n_max = 5 * gaps._CRAMER_CHUNK + 3
    res = cramer_simulate(CramerConfig(n_max=n_max, seed=0))
    p = [1 / math.log(n) for n in range(3, n_max + 1)]
    mean = 1 + math.fsum(p)
    sigma = math.sqrt(math.fsum(q * (1 - q) for q in p))
    for got, exact in ((res.expected_count, mean), (res.count_sigma, sigma)):
        assert abs(got - exact) <= 40 * 2.0**-53 * exact, (got, exact)
        assert f"{got:.12g}" == f"{exact:.12g}"


def test_cramer_count_within_4_sigma():
    res = cramer_simulate(CramerConfig(n_max=10**6, seed=0))
    assert abs(res.simulated_count - res.expected_count) <= 4 * res.count_sigma


def test_cramer_histogram_conservation():
    res = cramer_simulate(CramerConfig(n_max=10**5, seed=8))
    # every simulated prime but the last contributes one gap
    assert res.histogram.total == res.simulated_count - 1
    assert res.histogram.counts.sum() == res.histogram.total


def test_cramer_two_seeds_agree_within_noise():
    a = cramer_simulate(CramerConfig(n_max=10**6, seed=1))
    b = cramer_simulate(CramerConfig(n_max=10**6, seed=2))
    fa = a.histogram.counts / a.histogram.total
    fb = b.histogram.counts / b.histogram.total
    pooled = (a.histogram.counts + b.histogram.counts) / (a.histogram.total + b.histogram.total)
    n = min(a.histogram.total, b.histogram.total)
    sigma = np.sqrt(2 * pooled * (1 - pooled) / n)
    assert (np.abs(fa - fb) <= 4 * sigma + 1e-12).all()


def test_cramer_validation():
    with pytest.raises(PreconditionError):
        CramerConfig(n_max=2, seed=0)


def test_rng_is_documented_algorithm():
    gen = make_rng(0)
    assert type(gen.bit_generator).__name__ == "PCG64"


# ---------------------------------------------------------------------------
# long composite runs

def test_primorial_m3():
    rep = long_gap_construct("primorial", 3)
    assert rep.N == 6 and rep.run_start == 8 and rep.guaranteed_run == 2
    for n in (8, 9):
        assert naive_factorize(n)[0][0] <= 3


def test_primorial_m5():
    rep = long_gap_construct("primorial", 5)
    assert rep.N == 30
    for n in (32, 33, 34, 35):
        assert naive_factorize(n)[0][0] <= 5
    assert rep.observed_run >= rep.guaranteed_run == 4


def test_factorial_m5():
    rep = long_gap_construct("factorial", 5)
    assert rep.N == 120
    for n in (122, 123, 124, 125):
        assert naive_factorize(n)[0][0] <= 5
    assert rep.observed_run >= rep.guaranteed_run == 4


@pytest.mark.parametrize("kind,m", [("factorial", 12), ("primorial", 29)])
def test_guaranteed_run_has_small_factors(kind, m):
    rep = long_gap_construct(kind, m)
    for n in range(rep.run_start, rep.N + m + 1):
        assert any(n % p == 0 for p, _ in naive_factorize(n) if p <= m)
    assert rep.observed_run >= rep.guaranteed_run


def test_long_gap_overflow():
    with pytest.raises(OverflowError):
        long_gap_construct("factorial", 21)
    with pytest.raises(OverflowError):
        long_gap_construct("primorial", 53)
    long_gap_construct("primorial", 52)   # largest representable


def test_long_gap_validation():
    with pytest.raises(PreconditionError):
        long_gap_construct("fibonacci", 5)
    with pytest.raises(PreconditionError):
        long_gap_construct("factorial", 1)


def test_limsup_reference_constants():
    rep = long_gap_construct("primorial", 5)
    assert rep.cramer_limsup_constant == 1.0
    assert rep.corrected_limsup_constant == pytest.approx(1.1229, abs=1e-4)


# ---------------------------------------------------------------------------
# record long-gap bound expression

def _rankin(kind, m):
    return long_gap_construct(kind, m).rankin_bound_at_N


def test_rankin_two_evaluation_orders():
    for m in range(11, 21):
        l1 = math.log(float(math.factorial(m)))
        l2 = math.log(l1)
        l3 = math.log(l2)
        l4 = math.log(l3)
        regrouped = l4 * ((l1 / l3) * (l2 / l3))
        assert _rankin("factorial", m) == pytest.approx(regrouped, rel=1e-12)


def test_rankin_monotone_in_p():
    for kind, ms in (("factorial", range(11, 21)), ("primorial", [19, 23, 29, 31, 37, 41, 43, 47])):
        values = [_rankin(kind, m) for m in ms]
        assert all(a < b for a, b in zip(values, values[1:]))
    # a composite m adds no prime to the primorial, and so nothing to N
    assert _rankin("primorial", 52) == _rankin("primorial", 47)


def test_rankin_domain():
    # every iterated log is positive only for N > e^(e^e), about 3.81e6
    assert 10**6 * 3.8 < math.exp(math.exp(math.e)) < 10**6 * 3.82
    for m in range(2, 11):  # 10! = 3628800
        assert math.isnan(_rankin("factorial", m))
    for m in range(2, 19):  # primorial(17) = 510510
        assert math.isnan(_rankin("primorial", m))
    assert math.isfinite(_rankin("factorial", 11)) and _rankin("factorial", 11) > 0
    assert math.isfinite(_rankin("primorial", 19)) and _rankin("primorial", 19) > 0
