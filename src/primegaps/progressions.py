"""Primes in arithmetic progressions and their error terms.

pi(x; q, a) counts primes up to x in the class a mod q; against the
expected li(x)/phi(q) this defines E(x; q, a), its maximum over reduced
residues E(x; q), and the averaged quantity

    sum over q <= Q of max over y <= x of |E(y; q)|

whose x / (log x)^A behavior (for Q near sqrt(x) over a log power) is the
content of the Bombieri-Vinogradov bound.  The scan here evaluates the
inner maximum on a geometric checkpoint grid; it is an empirical report at
desk scale, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import mpmath
import numpy as np

from .errors import require
from .sieve import factorize, primes_upto

_LI_DPS = 30


@lru_cache(maxsize=512)
def _li_cached(x: float) -> float:
    with mpmath.workdps(_LI_DPS):
        return float(mpmath.li(x, offset=True))


def log_integral(x: float) -> float:
    """li(x) = integral from 2 to x of dt/log t (so li(2) = 0).

    Computed in 30-digit working precision; the quadrature error is far
    below 1e-9 throughout x <= 1e12 (the returned double rounds the exact
    value to nearest).
    """
    require(x >= 2, "log_integral needs x >= 2")
    return _li_cached(float(x))


def euler_phi(q: int) -> int:
    """Euler's totient, exactly, via factorization."""
    require(q >= 1, "q must be positive")
    out = q
    for p, _ in factorize(q):
        out -= out // p
    return out


def _reduced_residues(q: int) -> np.ndarray:
    """The classes a in [0, q) with gcd(a, q) = 1, ascending; there are phi(q)."""
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def pi_ap(x: int, q: int, a: int) -> int:
    """Exact count of primes p <= x with p = a (mod q).

    a is canonicalized mod q, and classes with gcd(a, q) > 1 are allowed:
    they contain at most the single prime dividing q.
    """
    require(x >= 0, "x must be nonnegative")
    require(q >= 1, "q must be positive")
    return int((primes_upto(x) % q == a % q).sum())


@dataclass(frozen=True)
class APErrorRecord:
    """One reduced residue class: its exact count and error term.

    error = count - li(x)/phi(q)."""

    q: int
    a: int
    count: int
    expected: float
    error: float


class ErrorTable(NamedTuple):
    records: list[APErrorRecord]
    max_abs_error: float


def _class_counts(primes: np.ndarray, ends, q_lo: int, q_hi: int):
    """Yield (q, C) once for each modulus q in [q_lo, q_hi], in no set order.

    C is the (len(ends), q) count matrix: C[j, a] counts the primes in
    primes[:ends[j]] that are = a (mod q).  The primes are reduced only
    mod the tops q_hi, q_hi - 1, ... down to max(q_hi // 2, q_lo - 1) + 1;
    every smaller modulus is top / 2^k for exactly one top.  Since the
    class a mod q is the union of the classes a and a + q mod 2q, each
    chain top, top/2, ... is walked by folding C[:, :q] + C[:, q:] while
    the modulus is even and its half stays >= q_lo.  The counts are exact.
    """
    for top in range(q_hi, max(q_hi // 2, q_lo - 1), -1):
        r = primes[: ends[-1]] % top
        # row j: counts per class of the primes up to ends[j]
        C = np.cumsum([np.bincount(s, minlength=top) for s in np.split(r, ends[:-1])], axis=0)
        q = top
        yield q, C
        while q % 2 == 0 and q // 2 >= q_lo:
            q //= 2
            C = C[:, :q] + C[:, q:]
            yield q, C


def error_table(x: int, q: int) -> ErrorTable:
    """Per-residue errors for all reduced classes mod q, and E(x; q).

    E(x; q) is the maximum |error| over residues a coprime to q."""
    require(x >= 2, "x must be at least 2")
    require(q >= 1, "q must be positive")
    primes = primes_upto(x)
    _, C = next(_class_counts(primes, [len(primes)], q, q))
    reduced = _reduced_residues(q)
    expected = log_integral(x) / len(reduced)
    records = [
        APErrorRecord(q, a, c, expected, c - expected)
        for a, c in zip(reduced.tolist(), C[0, reduced].tolist())
    ]
    max_err = max(abs(rec.error) for rec in records)
    return ErrorTable(records, max_err)


# ---------------------------------------------------------------------------
# averaged error scan

@dataclass(frozen=True)
class BVScanResult:
    """Checkpointed version of the averaged progression error.

    per_q maps each modulus to its maximum of E(y; q) over the checkpoint
    grid y = x * 2^(-j/8); argmax_y records where the maximum occurred.
    total sums the per-modulus maxima; normalized reports
    total * (log x)^A / x for A in {1, 2, 3}; reference_q_bound lists the
    theoretical modulus cutoffs sqrt(x)/(log x)^(24A+46), which collapse to
    zero at desk scale and are included for orientation only.
    """

    x: int
    q_max: int
    checkpoints: tuple[float, ...]
    per_q: dict[int, float]
    argmax_y: dict[int, float]
    total: float
    normalized: dict[int, float]
    reference_q_bound: dict[int, float]


def require_checkpoints(x: int, n_checkpoints: int) -> None:
    """Refuse a grid whose smallest point x * 2^(-(n-1)/8) falls below 2.

    The point is computed as bv_checkpoints computes it, without the grid.
    """
    require(n_checkpoints >= 1, "need at least one checkpoint")
    require(x * np.exp2(-(n_checkpoints - 1) / 8.0) >= 2,
            f"{n_checkpoints} checkpoints reach below 2: use fewer or a larger x")


def bv_checkpoints(x: int, n_checkpoints: int) -> np.ndarray:
    """Geometric grid x * 2^(-j/8), ascending."""
    js = np.arange(n_checkpoints - 1, -1, -1, dtype=np.float64)
    return x * np.exp2(-js / 8.0)


def bv_scan(x: int, Q_max: int, n_checkpoints: int = 64) -> BVScanResult:
    """Per-modulus maxima of |E(y; q)| on a checkpoint grid, summed.

    One sieve pass provides all primes.  The primes between consecutive
    checkpoints are bincounted by class and accumulated, mod q only for
    q > Q_max/2; every smaller modulus folds the counts of 2q.
    Deterministic: identical parameters give bit-identical results.
    """
    require(x >= 100, "x must be at least 100")
    require(1 <= Q_max <= x, "need 1 <= Q_max <= x")
    require_checkpoints(x, n_checkpoints)
    cps = bv_checkpoints(x, n_checkpoints)
    primes = primes_upto(x)
    ends = np.searchsorted(primes, cps, side="right")
    li_vals = np.array([log_integral(float(y)) for y in cps])
    per_q: dict[int, float] = {}
    argmax: dict[int, float] = {}
    for q, C in _class_counts(primes, ends, 1, Q_max):
        reduced = _reduced_residues(q)
        errs = np.abs(C[:, reduced] - li_vals[:, None] / len(reduced))
        row_max = errs.max(axis=1)
        j_best = int(row_max.argmax())
        per_q[q] = float(row_max[j_best])
        argmax[q] = float(cps[j_best])
    per_q, argmax = dict(sorted(per_q.items())), dict(sorted(argmax.items()))
    total = math.fsum(per_q.values())
    logx = math.log(x)
    normalized = {A: total * logx**A / x for A in (1, 2, 3)}
    reference = {A: math.sqrt(x) / logx ** (24 * A + 46) for A in (1, 2, 3)}
    return BVScanResult(
        x=x,
        q_max=Q_max,
        checkpoints=tuple(float(y) for y in cps),
        per_q=per_q,
        argmax_y=argmax,
        total=total,
        normalized=normalized,
        reference_q_bound=reference,
    )


def montgomery_ratios(x: int, q_min: int, q_max: int, eps: float) -> dict[int, float]:
    """Observed constants E(x; q) * sqrt(q) / x^(1/2 + eps), q_min <= q <= q_max.

    The conjectured square-root-of-q savings says these stay bounded for
    all q <= x once eps > 0.  E(x; q) is error_table(x, q).max_abs_error,
    computed from the folded class counts without per-class records; the
    keys ascend."""
    require(x >= 2, "x must be at least 2")
    require(q_min >= 1, "q_min must be positive")
    require(q_min <= q_max, f"empty modulus range: q_min {q_min} > q_max {q_max}")
    require(q_max <= x, f"q_max {q_max} exceeds x {x}")
    require(eps >= 0, "eps must be nonnegative")
    primes = primes_upto(x)
    li_x = log_integral(x)
    ratios = {}
    for q, C in _class_counts(primes, [len(primes)], q_min, q_max):
        reduced = _reduced_residues(q)
        E = float(np.abs(C[0, reduced] - li_x / len(reduced)).max())
        ratios[q] = E * math.sqrt(q) / x ** (0.5 + eps)
    return dict(sorted(ratios.items()))
