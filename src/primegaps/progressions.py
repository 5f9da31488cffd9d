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
import os
import pickle
import signal
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import require
from .sieve import primes_upto

# li is summed in 40 digits: up to x = 1e300 the largest term of its series
# is at most about 100 times the sum, so the cancellation leaves far more
# digits than a double's 17
_LI_CONTEXT = Context(prec=40)


def _li_minus_gamma(x: float) -> Decimal:
    """li(x) - gamma, li integrated from 0, by Ramanujan's series: log log x
    + sqrt(x) * sum over n >= 1 of (-1)^(n-1) (log x)^n / (n! 2^(n-1)) *
    sum over 2k+1 <= n of 1/(2k+1), until n > log x and the last term is
    below 1e-38 of the sum."""
    with localcontext(_LI_CONTEXT):
        log_x = Decimal(x).ln()
        term, odd_sum, total, n = log_x, Decimal(1), log_x, 1
        while n <= log_x or abs(term * odd_sum) >= abs(total).scaleb(-38):
            n += 1
            term *= -log_x / (2 * n)
            if n % 2:
                odd_sum += Decimal(1) / n
            total += term * odd_sum
        return log_x.ln() + Decimal(x).sqrt() * total


_LI_MINUS_GAMMA_2 = _li_minus_gamma(2.0)


@lru_cache(maxsize=512)
def _li_cached(x: float) -> float:
    if x == math.inf:
        return x
    # gamma cancels in the difference, which is rounded to a double once
    return float(_LI_CONTEXT.subtract(_li_minus_gamma(x), _LI_MINUS_GAMMA_2))


def log_integral(x: float) -> float:
    """li(x) = integral from 2 to x of dt/log t (so li(2) = 0, li(inf) = inf).

    The difference of Ramanujan's series at x and at 2, rounded to a double
    once; tests/test_progressions.py holds it, bit for bit, to a 30-digit
    arbitrary-precision li for x from 2 to 2^63 and at 1e300.
    """
    require(x >= 2, "log_integral needs x >= 2")
    return _li_cached(float(x))


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
    primes = primes_upto(x)
    # every prime of the uint32 table is its own residue mod q >= 2^32
    residues = primes % q if q < 1 << 32 else primes
    return int(np.count_nonzero(residues == a % q))


@dataclass(frozen=True)
class APErrorRecord:
    """One reduced residue class: its exact count and error term.

    error = count - li(x)/phi(q)."""

    q: int
    a: int
    count: int
    expected: float
    error: float


# _top_counts reduces its primes mod top this many at a time
_RESIDUE_BLOCK = 1 << 16


class ErrorTable(NamedTuple):
    records: list[APErrorRecord]
    max_abs_error: float
    pi_x: int


def _top_counts(primes: np.ndarray, ends, top: int) -> np.ndarray:
    """The (len(ends), top) matrix C with C[j, a] the count of primes in
    primes[:ends[j]] that are = a (mod top).

    Each checkpoint slice primes[ends[j-1]:ends[j]] is reduced
    _RESIDUE_BLOCK primes at a time, so the residues held at once are one
    block, never a slice of the table.  A block b, a view of the uint32
    table, is reduced with no copy as b - (b // top) * top: numpy divides
    by one scalar through a precomputed multiplier, which its `%` does not,
    and in uint32 that is about six times faster than `%` in int64."""
    C = np.zeros((len(ends), top), dtype=np.int64)
    for j, (start, end) in enumerate(zip([0, *ends], ends)):
        for lo in range(start, end, _RESIDUE_BLOCK):
            b = primes[lo : min(lo + _RESIDUE_BLOCK, end)]
            C[j] += np.bincount(b - b // top * top, minlength=top)
    return np.cumsum(C, axis=0, out=C)


def _fold_chain(primes: np.ndarray, ends, q_lo: int, measure, top: int) -> list:
    """[(q, measure(q, C))] for the moduli q = top, top/2, ... of one chain.

    C is the (len(ends), q) count matrix: C[j, a] counts the primes in
    primes[:ends[j]] that are = a (mod q).  Only top is reduced; since the
    class a mod q is the union of the classes a and a + q mod 2q, the chain
    folds C[:, :q] + C[:, q:] while q is even and q/2 >= q_lo.  The counts
    are exact."""
    C = _top_counts(primes, ends, top)
    q = top
    measured = [(q, measure(q, C))]
    while q % 2 == 0 and q // 2 >= q_lo:
        q //= 2
        C = C[:, :q] + C[:, q:]
        measured.append((q, measure(q, C)))
    return measured


def _forked_chains(chain, tops: range, workers: int) -> list:
    """The pairs of chain(top) for every top, from `workers` forked children.

    Child w walks tops[w::workers] and pickles its pairs, or the exception
    it raised, up its own pipe, then exits.  The parent reads each pipe to
    EOF and raises a child's exception as its own.  Every child is reaped
    before this returns or raises; if the parent raises or is interrupted
    first, the children still running are killed."""
    pids, pipes = [], {}  # every child forked, and the read end of each unread pipe
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                # os._exit, never a return or raise: the child must not run
                # the caller's code, flush its buffers or its exit handlers
                status = 1
                try:
                    for fd in (read_end, *pipes.values()):
                        os.close(fd)
                    # pickled whole before a byte is sent, so that a value
                    # that cannot be pickled sends its error, not half a pickle
                    try:
                        sent = pickle.dumps(
                            (True, [pair for top in tops[w::workers] for pair in chain(top)]))
                    except Exception as exc:
                        sent = pickle.dumps((False, exc))
                    with open(write_end, "wb") as pipe:
                        pipe.write(sent)
                    status = 0
                finally:
                    os._exit(status)
            # closed here, so that no later child inherits it and the pipe
            # reaches EOF when its own child exits
            os.close(write_end)
            pids.append(pid)
            pipes[pid] = read_end
        pairs = []
        for pid in pids:
            with open(pipes.pop(pid), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"scan worker {pid} ended without a result")
            ok, value = pickle.loads(data)  # written by a child of this process
            if not ok:
                raise value
            pairs += value
        return pairs
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so still ours
        raise
    finally:
        for fd in pipes.values():
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _scan(primes: np.ndarray, ends, q_lo: int, q_hi: int, measure, threads: int = 1) -> dict:
    """{q: measure(q, C)} for each modulus q in [q_lo, q_hi], keys ascending,
    with C the count matrix of _fold_chain.

    The primes are reduced only mod the tops q_hi, q_hi - 1, ... down to
    max(q_hi // 2, q_lo - 1) + 1; every smaller modulus is top / 2^k for
    exactly one top, and is measured on that top's fold chain.  The chains
    are walked by min(threads, cpu count, tops) children forked from this
    process, which only collects: each inherits the primes, ends and
    measure, so none of them is pickled and no count matrix crosses a pipe,
    only the measures.  The children call no BLAS, so the idle BLAS threads
    numpy may hold in this process cannot stall them.  One worker, or a
    platform without fork, walks the chains in this process.  No child
    outlives _scan, and the result does not depend on threads.
    """
    require(threads >= 1, "threads must be at least 1")
    tops = range(q_hi, max(q_hi // 2, q_lo - 1), -1)
    workers = min(threads, os.cpu_count() or 1, len(tops))
    chain = partial(_fold_chain, primes, ends, q_lo, measure)
    if workers > 1 and hasattr(os, "fork"):
        pairs = _forked_chains(chain, tops, workers)
    else:
        pairs = [pair for top in tops for pair in chain(top)]
    return dict(sorted(pairs))


def error_table(x: int, q: int) -> ErrorTable:
    """Per-residue errors for all reduced classes mod q, and E(x; q).

    E(x; q) is the maximum |error| over residues a coprime to q.  The
    cached primes_upto(x) table is reduced mod q by _top_counts, a block
    at a time, so no second table is held; pi_x is the table's length."""
    require(x >= 2, "x must be at least 2")
    require(q >= 1, "q must be positive")
    primes = primes_upto(x)
    counts = _top_counts(primes, [len(primes)], q)[-1]
    reduced = _reduced_residues(q)
    expected = log_integral(x) / len(reduced)
    records = [
        APErrorRecord(q, a, c, expected, c - expected)
        for a, c in zip(reduced.tolist(), counts[reduced].tolist())
    ]
    max_err = max(abs(rec.error) for rec in records)
    return ErrorTable(records, max_err, len(primes))


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


def bv_scan(x: int, Q_max: int, n_checkpoints: int = 64, threads: int = 1) -> BVScanResult:
    """Per-modulus maxima of |E(y; q)| on a checkpoint grid, summed.

    One sieve pass provides all primes.  The primes between consecutive
    checkpoints are bincounted by class and accumulated, mod q only for
    q > Q_max/2, on up to `threads` worker processes; every smaller modulus
    folds the counts of 2q.  Deterministic: identical parameters give
    bit-identical results, at any number of threads.
    """
    return bv_scans(x, Q_max, (n_checkpoints,), threads)[0]


def bv_scans(x: int, Q_max: int, grid_sizes, threads: int = 1) -> list[BVScanResult]:
    """[bv_scan(x, Q_max, n, threads) for n in grid_sizes], from one scan.

    The grid of n points is, bit for bit, the top n points of the grid of
    N = max(grid_sizes) points, and so are its prime counts and li values.
    So the classes are counted once, on the N grid, and each modulus takes
    the maximum of its row maxima over the top n rows for every n.
    """
    require(x >= 100, "x must be at least 100")
    require(1 <= Q_max <= x, "need 1 <= Q_max <= x")
    require(len(grid_sizes) >= 1, "need at least one grid")
    for n in grid_sizes:
        require_checkpoints(x, n)
    N = max(grid_sizes)
    cps = bv_checkpoints(x, N)
    primes = primes_upto(x)
    # primes are integers, so those <= y are those <= floor(y); a key of the
    # table's dtype keeps numpy from casting the whole table to float64
    ends = np.searchsorted(primes, np.floor(cps).astype(primes.dtype), side="right")
    li_vals = np.array([log_integral(float(y)) for y in cps])
    starts = [N - n for n in grid_sizes]

    def measure(q, C):
        """The maximum of |E(y; q)| over the grid points from each start,
        and the first point y where it occurs."""
        reduced = _reduced_residues(q)
        row_max = np.abs(C[:, reduced] - li_vals[:, None] / len(reduced)).max(axis=1)
        best = [s + int(row_max[s:].argmax()) for s in starts]
        return [(float(row_max[j]), float(cps[j])) for j in best]

    found = _scan(primes, ends, 1, Q_max, measure, threads)
    logx = math.log(x)
    results = []
    for i, s in enumerate(starts):
        per_q = {q: m[i][0] for q, m in found.items()}
        total = math.fsum(per_q.values())
        results.append(BVScanResult(
            per_q=per_q,
            argmax_y={q: m[i][1] for q, m in found.items()},
            total=total,
            normalized={A: total * logx**A / x for A in (1, 2, 3)},
            reference_q_bound={A: math.sqrt(x) / logx ** (24 * A + 46) for A in (1, 2, 3)},
        ))
    return results


def montgomery_ratios(x: int, q_min: int, q_max: int, eps: float,
                      threads: int = 1) -> dict[int, float]:
    """Observed constants E(x; q) * sqrt(q) / x^(1/2 + eps), q_min <= q <= q_max.

    The conjectured square-root-of-q savings says these stay bounded for
    all q <= x once eps > 0.  E(x; q) is error_table(x, q).max_abs_error,
    computed from the folded class counts without per-class records, on
    up to `threads` worker processes; the keys ascend."""
    require(x >= 2, "x must be at least 2")
    require(q_min >= 1, "q_min must be positive")
    require(q_min <= q_max, f"empty modulus range: q_min {q_min} > q_max {q_max}")
    require(q_max <= x, f"q_max {q_max} exceeds x {x}")
    require(eps >= 0, "eps must be nonnegative")
    primes = primes_upto(x)
    li_x = log_integral(x)

    def measure(q, C):
        """E(x; q), from the one row of C."""
        reduced = _reduced_residues(q)
        return float(np.abs(C[0, reduced] - li_x / len(reduced)).max())

    found = _scan(primes, [len(primes)], q_min, q_max, measure, threads)
    return {q: E * math.sqrt(q) / x ** (0.5 + eps) for q, E in found.items()}
