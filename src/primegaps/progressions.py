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


def error_table(x: int, q: int) -> ErrorTable:
    """Per-residue errors for all reduced classes mod q, and E(x; q).

    E(x; q) is the maximum |error| over residues a coprime to q."""
    require(x >= 2, "x must be at least 2")
    require(q >= 1, "q must be positive")
    reduced = _reduced_residues(q)
    counts = np.bincount(primes_upto(x) % q, minlength=q)[reduced]
    expected = log_integral(x) / len(reduced)
    records = [
        APErrorRecord(q, a, c, expected, c - expected)
        for a, c in zip(reduced.tolist(), counts.tolist())
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

    One sieve pass provides all primes; per modulus the primes between
    consecutive checkpoints are bincounted by class and accumulated.
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
    totals = []
    for q in range(1, Q_max + 1):
        reduced = _reduced_residues(q)
        r = primes % q
        # row j: counts per class of the primes up to checkpoint j
        C = np.cumsum([np.bincount(s, minlength=q) for s in np.split(r, ends[:-1])], axis=0)
        errs = np.abs(C[:, reduced] - li_vals[:, None] / len(reduced))
        row_max = errs.max(axis=1)
        j_best = int(row_max.argmax())
        per_q[q] = float(row_max[j_best])
        argmax[q] = float(cps[j_best])
        totals.append(per_q[q])
    total = math.fsum(totals)
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


def montgomery_ratio(x: int, q: int, eps: float) -> float:
    """Observed constant E(x; q) * sqrt(q) / x^(1/2 + eps).

    The conjectured square-root-of-q savings says this stays bounded for
    all q <= x once eps > 0."""
    require(q >= 1, "q must be positive")
    require(q <= x, "need q <= x")
    require(eps >= 0, "eps must be nonnegative")
    E = error_table(x, q).max_abs_error
    return E * math.sqrt(q) / x ** (0.5 + eps)
