import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegaps import OffsetTuple, gallagher_average, prime_count, singular_series
from primegaps import sieve, tuples
from primegaps.errors import PreconditionError
from primegaps.tuples import SingularSeriesValue, _nu_cached, hl_count, is_admissible
from primegaps.sieve import prime_indicator, primes_upto
from primegaps.tuples import default_truncation

from conftest import package_env, trial_division_is_prime


def test_tuple_construction():
    H = OffsetTuple((0, 2, 6))
    assert H.k == 3
    assert str(H) == "0,2,6"
    assert OffsetTuple.parse("0,2,6") == H
    with pytest.raises(PreconditionError):
        OffsetTuple((0, 2, 2))       # repeats rejected, not deduplicated
    with pytest.raises(PreconditionError):
        OffsetTuple((2, 0))
    with pytest.raises(PreconditionError):
        OffsetTuple((-2, 0))
    with pytest.raises(PreconditionError):
        OffsetTuple(())


def test_nu_examples():
    assert _nu_cached((0, 2), 2) == 1
    assert _nu_cached((0, 2), 3) == 2
    # a prime beyond every element sees all k residues
    assert _nu_cached((7, 11, 13, 17, 19, 23), 29) == 6


@settings(max_examples=200)
@given(
    st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=8),
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]),
)
def test_nu_bounds(offsets, ell):
    H = OffsetTuple(tuple(sorted(offsets)))
    assert 1 <= _nu_cached(H.offsets, ell) <= min(H.k, ell)


def test_admissibility_examples():
    assert is_admissible(OffsetTuple((0, 2))) == (True, None)
    assert is_admissible(OffsetTuple((0, 2, 4))) == (False, 3)
    assert is_admissible(OffsetTuple((7, 11, 13, 17, 19, 23))) == (True, None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_primes_above_k_are_admissible(data):
    """Any k primes all larger than k form an admissible set."""
    k = data.draw(st.integers(min_value=1, max_value=8))
    pool = [int(p) for p in primes_upto(1000) if p > k]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    ok, witness = is_admissible(OffsetTuple(tuple(sorted(picks))))
    assert ok and witness is None


def test_singular_series_twin():
    ss = singular_series(OffsetTuple((0, 2)), 10**5)
    assert not ss.is_zero
    assert ss.value == pytest.approx(1.3203, abs=5e-4)
    assert ss.tail_bound == pytest.approx(6 / 10**5)


def test_singular_series_zero_witness():
    ss = singular_series(OffsetTuple((0, 1)), 10**5)
    assert ss.is_zero and ss.witness == 2 and ss.value == 0.0


def test_singular_series_singleton_exact():
    ss = singular_series(OffsetTuple((0,)), 10**5)
    assert ss.value == 1.0 and ss.tail_bound == 0.0


def test_singular_series_L_too_small():
    with pytest.raises(PreconditionError):
        singular_series(OffsetTuple((0, 2)), 3)
    with pytest.raises(PreconditionError):
        singular_series(OffsetTuple((0, 1000)), 500)


def test_singular_series_translation_invariance():
    base = OffsetTuple((0, 4, 6))
    sb = singular_series(base, 10**4)
    for c in (1, 5, 30):
        sc = singular_series(OffsetTuple(tuple(h + c for h in base.offsets)), 10**4)
        assert abs(sc.value - sb.value) <= 2 * sb.tail_bound * max(sb.value, 1.0)


def test_singular_series_truncation_consistency():
    """Raising L moves the value by at most the tail bound's allowance."""
    H = OffsetTuple((0, 2, 6, 8))
    lo = singular_series(H, 2_000)
    hi = singular_series(H, 200_000)
    rel = abs(hi.value - lo.value) / lo.value
    assert rel <= math.exp(lo.tail_bound) - 1


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=40), min_size=2, max_size=5),
    st.integers(min_value=100, max_value=2000),
)
def test_singular_series_truncation_consistency_random(offsets, L):
    H = OffsetTuple(tuple(sorted(offsets)))
    lo = singular_series(H, L)
    if lo.is_zero:
        assert singular_series(H, 4 * L).is_zero
        return
    hi = singular_series(H, 4 * L)
    assert abs(hi.value - lo.value) / lo.value <= math.exp(lo.tail_bound) - 1


def per_tuple_series(H: OffsetTuple, L: int) -> SingularSeriesValue:
    """Reference: one tuple's Euler factors over every prime <= L, multiplied
    by a single np.prod, with the witness found by brute force."""
    k = H.k
    for ell in primes_upto(k).tolist():
        if len({h % ell for h in H.offsets}) == ell:
            return SingularSeriesValue(0.0, L, 0.0, True, ell)
    if k == 1:
        return SingularSeriesValue(1.0, L, 0.0, False, None)
    primes = primes_upto(L)
    offs = np.array(H.offsets, dtype=np.int64)
    res = np.sort(offs[:, None] % primes[None, :], axis=0)
    nu_arr = 1 + (np.diff(res, axis=0) != 0).sum(axis=0)
    ell = primes.astype(np.float64)
    factors = (1.0 - nu_arr / ell) * (1.0 - 1.0 / ell) ** (-k)
    return SingularSeriesValue(float(np.prod(factors)), L, k * (k + 1) / L, False, None)


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=3000),
)
@example({0, 1}, 0)                  # covers both classes mod 2
@example({0, 2, 4}, 0)               # covers every class mod 3
@example({5, 7, 11}, 40)             # admissible, not starting at 0
@example({3, 5, 7, 9, 11, 13}, 0)    # inadmissible mod 3 and mod 5
@example({42}, 7)
def test_singular_series_matches_per_tuple_product(offsets, extra):
    H = OffsetTuple(tuple(sorted(offsets)))
    L = max(H.offsets[-1], 2 * H.k) + extra
    assert singular_series(H, L) == per_tuple_series(H, L)


def test_singular_series_prime_tuple_nonzero():
    ss = singular_series(OffsetTuple((7, 11, 13, 17, 19, 23)))
    assert not ss.is_zero and ss.value > 0


def test_hl_count_twin_100():
    res = hl_count(OffsetTuple((0, 2)), 100)
    # brute force: n <= 100 with n and n+2 prime
    brute = sum(
        1
        for n in range(1, 101)
        if trial_division_is_prime(n) and trial_division_is_prime(n + 2)
    )
    assert res.actual == brute == 8


def test_hl_count_singleton_is_pi():
    for x in (10, 100, 1000):
        assert hl_count(OffsetTuple((0,)), x).actual == prime_count(x)


def test_hl_count_inadmissible():
    res = hl_count(OffsetTuple((0, 1)), 100)
    assert res.actual == 1          # only n = 2 gives the pair 2, 3
    assert res.predicted == 0.0


@pytest.mark.parametrize("block", [1, 2, 7, 64, 1018, 1019])
def test_hl_count_counts_each_n_once_at_any_block_size(block, sieve_window):
    # windows far smaller than x put seams among the primes themselves, and
    # the smallest split (0, 2, 6) and (0, 4, 6, 10) into groups of offsets
    # within half a window; x = 1019 starts a twin pair, so the last n
    # counts too.  L = 20 keeps the series' own windows few.
    sieve_window(block)
    for offsets in ((0,), (0, 2), (0, 2, 6), (0, 4, 6, 10)):
        expected = sum(
            1 for n in range(1, 1020)
            if all(trial_division_is_prime(n + h) for h in offsets)
        )
        assert hl_count(OffsetTuple(offsets), 1019, L=20).actual == expected


def test_hl_count_twin_published_1e8():
    # published count of twin-prime pairs (p, p + 2) with p <= 10^8
    assert hl_count(OffsetTuple((0, 2)), 10**8).actual == 440_312


def test_hl_count_twin_published_1e9():
    # OEIS A007508: 3,424,506 twin-prime pairs (p, p + 2) with p <= 10^9;
    # 60 sieve windows, one at a time
    assert hl_count(OffsetTuple((0, 2)), 10**9).actual == 3_424_506


@pytest.mark.parametrize("offsets, size", [
    ((0, 2), 7), ((0, 2), 1000), ((0, 2), 1 << 8),
    ((0, 2, 6, 8), 7), ((0, 2, 6, 8), 1012), ((0, 2, 6, 8), 1051),
    ((0, 400, 1500), 1000),
    # mixed parity, all-odd offsets, k = 1, and h_k - h_1 past half a
    # window, which splits the offsets into groups
    ((0, 1), 7), ((0, 3), 1000), ((1, 3), 7), ((1, 3), 1000), ((1, 7, 13), 1041),
    ((1, 7, 13), 1000), ((0,), 7), ((1,), 1000), ((0, 2, 600), 1041), ((0, 300, 600), 1000),
])
def test_hl_count_streams_across_window_seams(offsets, size, sieve_window):
    # each group of offsets within size // 2 of its first, g_1, streams the
    # windows of m = n + g_1 from 3 + g_1 + i * step, all overlapping by the
    # widest group's reach; the tuples n whose n + g_k lies in a later window
    # are counted from the overlap alone, and each size puts a seam inside
    # some counted tuple past n = 2, except where no window overlaps the
    # next (one offset a group) or only n <= 2 count (mixed parity)
    x = 20_000
    groups = [[offsets[0]]]
    for h in offsets[1:]:
        if h - groups[-1][0] <= size // 2:
            groups[-1].append(h)
        else:
            groups.append([h])
    reach = max(g[-1] - g[0] for g in groups)
    step = size - reach
    ind = prime_indicator(0, x + offsets[-1] + 1)
    counted = [n for n in range(1, x + 1) if all(ind[n + h] for h in offsets)]
    straddling = [n for n in counted if n > 2 and (n - 3) // step != (n - 3 + reach) // step]
    one_parity = len({h % 2 for h in offsets}) == 1
    assert bool(straddling) == (one_parity and reach > 0), "choose other sizes"
    sieve_window(size)
    assert hl_count(OffsetTuple(offsets), x).actual == len(counted)


@pytest.mark.parametrize("h", [2, 5_000, 60_000])
def test_hl_count_sieves_at_most_twice_its_range(h, monkeypatch):
    # h = 2 sieves each window's h_k again past its span, which is never
    # shorter than h_k, so the overlaps add at most x + h_k integers; the
    # larger h are past half a window, so 0 and h stream x integers each;
    # the windows of the singular series, which hl_count evaluates too, are
    # counted apart and taken off
    x = 50_000
    H = OffsetTuple((0, h))
    sieved = []
    sieve_range = sieve.sieve_range

    def counting(lo, hi, strikes=None):
        sieved.append(hi - lo)
        return sieve_range(lo, hi, strikes)

    expected = hl_count(H, x).actual
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 1 << 10)
    monkeypatch.setattr(sieve, "sieve_range", counting)
    singular_series(H)
    series = sum(sieved)
    assert hl_count(H, x).actual == expected
    assert sum(sieved) - 2 * series <= 2 * (x + h), (sum(sieved), series)


def test_hl_count_twin_ratio_baselines(baseline):
    H = OffsetTuple((0, 2))
    for exp in (4, 5, 6, 7):
        res = hl_count(H, 10**exp)
        baseline.check(f"hl_count_twin_1e{exp}_actual", res.actual)
        baseline.check(
            f"hl_count_twin_1e{exp}_ratio", res.actual / res.predicted, rel_tol=1e-6
        )


def test_gallagher_k1_exact():
    res = gallagher_average(1, 50, 1000)
    assert res.lhs == 50.0 and res.rhs == 50 and res.ratio == 1.0


@pytest.mark.parametrize("k, h", [(1, 10), (2, 30), (3, 20), (4, 14)])
def test_gallagher_lhs_matches_subset_enumeration(k, h):
    # one singular-series term per k-subset of [1, h], with no grouping
    L = 200
    direct = math.fsum(
        singular_series(OffsetTuple(tuple(c - s[0] for c in s)), L).value
        for s in itertools.combinations(range(1, h + 1), k)
    )
    assert gallagher_average(k, h, L).lhs == direct


def test_gallagher_k2_trend(baseline):
    ratios = {}
    for h in (250, 500, 1000):
        res = gallagher_average(2, h, 10**4)
        ratios[h] = res.ratio
        baseline.check(f"gallagher_k2_h{h}_ratio", res.ratio, rel_tol=1e-9)
    print(f"gallagher ratios (k=2): {ratios}")
    # report: doubling h moves the average closer to 1
    assert abs(ratios[500] - 1) < abs(ratios[250] - 1)
    assert abs(ratios[1000] - 1) < abs(ratios[500] - 1)
    assert 0.9 <= ratios[1000] <= 1.1


def test_gallagher_L_too_small():
    with pytest.raises(PreconditionError):
        gallagher_average(2, 100, 50)


@pytest.mark.parametrize("k, h, L", [(3, 100, None), (2, 1000, 10**4), (4, 60, None), (1, 50, None)])
def test_gallagher_lhs_matches_per_translate_series(k, h, L):
    L = default_truncation(h, k) if L is None else L
    translates = ((0, *rest) for rest in itertools.combinations(range(1, h), k - 1))
    reference = math.fsum(
        (h - t[-1]) * per_tuple_series(OffsetTuple(t), L).value for t in translates
    )
    assert gallagher_average(k, h, L).lhs == reference


# Chunks of the series kernel's factor matrices, its tuple blocks and its
# sieve windows, patched small so that seams fall between most primes: at
# 7 cells every residue chunk of a block of 5 pairs or wider tuples is one
# prime, and a window of 64 integers holds at most 18 primes.
SERIES_SEAMS = [(7, 5, 64), (1, 1, 64), (3, 2, 200), (7, 5, 1 << 21), (1 << 16, 1 << 10, 64)]


def patch_series_seams(monkeypatch, sieve_window, cells, rows, window):
    monkeypatch.setattr(tuples, "_SERIES_CELLS", cells)
    monkeypatch.setattr(tuples, "_SERIES_ROWS", rows)
    sieve_window(window)


def test_series_seams_fall_after_the_small_primes_at_the_span_and_between_windows(
        monkeypatch, sieve_window):
    # H = {0, 2, 6, 8}: k = 4, so one prime per residue chunk at 7 cells,
    # and span 8; the fold's chunk boundaries, counted in primes from 2,
    # include pi(k), pi(span) and the end of every 64-integer window
    patch_series_seams(monkeypatch, sieve_window, 7, 5, 64)
    fold, chunks = tuples._fold, []

    def recording(acc, factors):
        chunks.append(len(factors))
        return fold(acc, factors)

    monkeypatch.setattr(tuples, "_fold", recording)
    L = 300
    singular_series(OffsetTuple((0, 2, 6, 8)), L)
    seams = set(itertools.accumulate(chunks))
    wanted = {prime_count(4), prime_count(8)} | {prime_count(a - 1) for a in range(64, L, 64)}
    assert wanted <= seams, (sorted(wanted - seams), chunks)
    assert max(seams) == prime_count(L)


SEAM_TUPLES = [
    (0, 2), (0, 2, 6), (0, 1), (0, 4, 6, 10), (3, 5, 7, 9, 11, 13), (42,), (0, 2, 6, 8, 12),
    (5, 7, 11), (0, 30), (0, 2, 4), (0, 120),
]


@pytest.mark.parametrize("cells, rows, window", SERIES_SEAMS)
def test_singular_series_is_bit_exact_across_series_seams(cells, rows, window, monkeypatch,
                                                           sieve_window):
    patch_series_seams(monkeypatch, sieve_window, cells, rows, window)
    for offsets in SEAM_TUPLES:
        H = OffsetTuple(offsets)
        least = max(H.offsets[-1], 2 * H.k)
        for L in (least, least + 61, 1500):
            assert singular_series(H, L) == per_tuple_series(H, L), (offsets, L)


@pytest.mark.parametrize("cells, rows, window", SERIES_SEAMS)
def test_series_blocks_are_bit_exact_for_a_mixed_block(cells, rows, window, monkeypatch,
                                                        sieve_window):
    # admissible and inadmissible triples (mod 2 or mod 3) side by side, in
    # blocks of rows tuples, against one whole-array product each
    patch_series_seams(monkeypatch, sieve_window, cells, rows, window)
    triples = [(0, 2, 6), (0, 2, 4), (0, 4, 6), (0, 1, 3), (0, 6, 8), (0, 3, 6), (0, 12, 80),
               (0, 2, 18), (0, 8, 10), (0, 4, 5)]
    L = 700
    values = np.concatenate([v for _, v in tuples._series_blocks(triples, 3, L)])
    assert values.tolist() == [per_tuple_series(OffsetTuple(t), L).value for t in triples]
    assert 0 < values.tolist().count(0.0) < len(triples)


@pytest.mark.parametrize("cells, rows, window", SERIES_SEAMS)
@pytest.mark.parametrize("k, h, L", [(1, 20, 300), (2, 30, 500), (3, 20, 700), (4, 16, 200)])
def test_gallagher_is_bit_exact_across_series_seams(k, h, L, cells, rows, window, monkeypatch,
                                                   sieve_window):
    patch_series_seams(monkeypatch, sieve_window, cells, rows, window)
    translates = ((0, *rest) for rest in itertools.combinations(range(1, h), k - 1))
    reference = math.fsum(
        (h - t[-1]) * per_tuple_series(OffsetTuple(t), L).value for t in translates
    )
    assert gallagher_average(k, h, L).lhs == reference


def test_singular_series_sieves_its_level_without_the_prime_table():
    # the series reads its primes from sieve windows, so the table grows
    # only to the sieve's base primes, up to sqrt(L), and the primes <= k
    code = ("from primegaps import sieve\n"
            "from primegaps.tuples import OffsetTuple, singular_series\n"
            "singular_series(OffsetTuple((0, 2, 6)), 10**7)\n"
            "print(sieve._base_limit)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10**4
