"""Command-line front end: one subcommand per analysis, CSV/JSON output.

Every run is deterministic for a fixed argument list (the default seed is
the constant 0, never the clock), so identical invocations produce
byte-identical files.  Validation failures and refused sizes exit 2, before
any work, naming the violated precondition; runtime failures (overflow, I/O) exit 1.

Each handler imports the layers it runs when it runs, so a process loads
only what its subcommand needs: gpy-ratio and inequality-scan start without
numpy, and no subcommand loads any other third-party package.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .errors import PreconditionError, require

DEFAULT_SEED = 0
OUTDIR_ENV = "PRIMEGAPS_OUTDIR"

# refuse-by-default work limits; --force overrides
MAX_SIEVE_SPAN = 2_000_000_000
MAX_SAMPLES = 10_000_000  # about 8 bytes of peak memory each
MAX_CRAMER = 200_000_000
MAX_BV_MODULI = 100_000
SUBSET_BUDGET = 10_000_000
# gpy-experiment adds weights into x + 1 profile entries, one streamed block
# at a time: this bounds its work, not its memory
MAX_PROFILE = 250_000_000
# build_weights evaluates P, of degree k + r, once per squarefree d <= R
MAX_POLY_DEGREE = 1_000
# one inequality-scan row (k, m) costs about k + 2m big-rational steps
MAX_SCAN_WORK = 1_000_000


def parse_exact_int(text: str) -> int:
    """Integer argument, accepting scientific notation like 1e8 exactly.

    A size of 2^64 or more is refused before it is expanded to an int,
    which takes seconds at 1e200000: no subcommand can use one.
    """
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not d.is_finite() or d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    if not -(1 << 64) < d < 1 << 64:
        raise argparse.ArgumentTypeError(f"integer beyond 64 bits: {text!r}")
    return int(d)


def parse_seed(text: str) -> int:
    """RNG seed argument: an exact integer, refused when negative."""
    seed = parse_exact_int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative: {text!r}")
    return seed


def fmt_value(v) -> str:
    """Canonical text for one CSV cell: 12 significant digits for reals."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_clean(v):
    if isinstance(v, float):
        if math.isnan(v):
            return None
        return float(f"{v:.12g}")
    if isinstance(v, dict):
        return {k: _json_clean(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_clean(x) for x in v]
    return v


def render(columns, rows, meta, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(fmt_value(row.get(c)) for c in columns)
        return buf.getvalue()
    payload = {"meta": _json_clean(meta), "rows": _json_clean(rows)}
    return json.dumps(payload, indent=2) + "\n"


def emit(columns, rows, meta, fmt: str, path: str | None) -> None:
    """Write the table to path (atomically) or standard output.

    Output goes to a temporary file first and is renamed into place only
    on success, so a failed run never leaves partial output behind.
    """
    text = render(columns, rows, meta, fmt)
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".primegaps-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _guard(force: bool, condition: bool, message: str) -> None:
    if not condition and not force:
        raise PreconditionError(message + " (pass --force to override)")


def _guard_level(force: bool, k: int, L: int) -> None:
    # the series kernel sorts k residues per tuple for each prime up to its
    # span (<= L) and multiplies pi(L) factors per tuple; it reads one 1 MiB
    # sieve window and 512 KiB factor chunk at a time, so k*L bounds work,
    # not memory
    _guard(force, k * L <= MAX_SIEVE_SPAN, f"k*L {k * L} beyond singular-series budget")


def _meta(args, **params) -> dict:
    return {
        "subcommand": args.cmd,
        "version": __version__,
        "seed": getattr(args, "seed", DEFAULT_SEED),
        "parameters": params,
    }


def _histogram_rows(hist):
    from .gaps import exponential_bin_mass

    masses = exponential_bin_mass(hist.bin_edges)
    rows = []
    edges = list(hist.bin_edges) + [math.inf]
    for i in range(len(hist.counts)):
        rows.append(
            {
                "bin_lo": float(edges[i]),
                "bin_hi": float(edges[i + 1]),
                "count": int(hist.counts[i]),
                "fraction": float(hist.counts[i] / hist.total) if hist.total else 0.0,
                "predicted_mass": float(masses[i]),
            }
        )
    return ["bin_lo", "bin_hi", "count", "fraction", "predicted_mass"], rows


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (columns, rows, meta)

def _cmd_gaps(args):
    from .gaps import CORRECTED_LIMSUP_CONSTANT, CRAMER_LIMSUP_CONSTANT, gap_histogram

    # the window plus the base primes up to sqrt(x_hi)
    span = args.x_hi - args.x_lo + math.isqrt(max(args.x_hi, 0))
    _guard(args.force, span <= MAX_SIEVE_SPAN, f"sieved span {span} beyond sieve budget")
    hist = gap_histogram(args.x_lo, args.x_hi)
    columns, rows = _histogram_rows(hist)
    meta = _meta(args, x_lo=args.x_lo, x_hi=args.x_hi)
    meta["total_gaps"] = hist.total
    # worst gap/(log p)^2 in range, reported beside the reference constants
    meta["max_gap_over_log_sq"] = hist.max_gap_over_log_sq
    meta["max_gap_at_p"] = hist.max_gap_at_p
    meta["cramer_limsup_constant"] = CRAMER_LIMSUP_CONSTANT
    meta["corrected_limsup_constant"] = CORRECTED_LIMSUP_CONSTANT
    return columns, rows, meta


def _cmd_intervals(args):
    from .gaps import interval_count_distribution, poisson_unit_pmf

    _guard(args.force, 2 * args.x <= MAX_SIEVE_SPAN, f"2x {2 * args.x} beyond sieve budget")
    _guard(args.force, args.n_samples <= MAX_SAMPLES, "n_samples beyond budget")
    stats = interval_count_distribution(args.x, args.n_samples, args.seed)
    rows = [
        {"k": k, "empirical_fraction": frac, "poisson_prediction": poisson_unit_pmf(k)}
        for k, frac in sorted(stats.fractions.items())
    ]
    meta = _meta(args, x=args.x, n_samples=args.n_samples)
    meta["empirical_mean"] = stats.empirical_mean
    meta["exact_mean"] = stats.exact_mean
    return ["k", "empirical_fraction", "poisson_prediction"], rows, meta


def _cmd_cramer(args):
    from .gaps import CramerConfig, cramer_simulate

    _guard(args.force, args.n_max <= MAX_CRAMER, f"n_max {args.n_max} beyond budget")
    result = cramer_simulate(CramerConfig(n_max=args.n_max, seed=args.seed))
    columns, rows = _histogram_rows(result.histogram)
    meta = _meta(args, n_max=args.n_max)
    meta["simulated_count"] = result.simulated_count
    meta["expected_count"] = result.expected_count
    meta["count_sigma"] = result.count_sigma
    return columns, rows, meta


def _cmd_longgap(args):
    from .gaps import long_gap_construct

    row = vars(long_gap_construct(args.kind, args.m))
    return list(row), [row], _meta(args, kind=args.kind, m=args.m)


def _cmd_tuple(args):
    from .tuples import OffsetTuple, default_truncation, singular_series

    H = OffsetTuple.parse(args.offsets)
    L = args.L if args.L is not None else default_truncation(H.offsets[-1], H.k)
    _guard_level(args.force, H.k, L)
    ss = singular_series(H, L)
    row = {
        "offsets": str(H),
        "k": H.k,
        "admissible": not ss.is_zero,
        "witness": ss.witness,
        "value": ss.value,
        "truncation_L": ss.truncation_L,
        "tail_bound": ss.tail_bound,
        "is_zero": ss.is_zero,
    }
    return list(row), [row], _meta(args, offsets=str(H), L=ss.truncation_L)


def _cmd_hl_count(args):
    from .tuples import OffsetTuple, default_truncation, hl_count

    H = OffsetTuple.parse(args.offsets)
    _guard(
        args.force,
        args.x + H.offsets[-1] <= MAX_SIEVE_SPAN,
        f"x + h_k {args.x + H.offsets[-1]} beyond sieve budget",
    )
    L = args.L if args.L is not None else default_truncation(H.offsets[-1], H.k)
    _guard_level(args.force, H.k, L)
    res = hl_count(H, args.x, L)
    row = {
        "offsets": str(H),
        "x": args.x,
        **res._asdict(),
        "ratio": res.actual / res.predicted if res.predicted else math.nan,
    }
    return list(row), [row], _meta(args, offsets=str(H), x=args.x)


def _cmd_gallagher(args):
    from .tuples import default_truncation, gallagher_average

    L = args.L if args.L is not None else default_truncation(args.h, args.k)
    _guard_level(args.force, args.k, L)
    # binomial(h - j + i, i) grows with i and passes 10^7 within 14 steps;
    # a k outside [1, h] leaves j < 1, for gallagher_average's own checks
    j, c = min(args.k, args.h - args.k), 1
    beyond = any((c := c * (args.h - j + i) // i) > SUBSET_BUDGET for i in range(1, j + 1))
    _guard(args.force, not beyond,
           f"binomial({args.h}, {args.k}) beyond the {SUBSET_BUDGET} subset budget")
    res = gallagher_average(args.k, args.h, L)
    row = {"k": args.k, "h": args.h, "L": L, **res._asdict()}
    return list(row), [row], _meta(args, k=args.k, h=args.h, L=L)


def _parse_poly(text: str, k: int):
    from .polys import PolynomialSpec

    try:
        coeffs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse coefficients {text!r}: {exc}")
    return PolynomialSpec.from_coeffs(coeffs, k)


def _cmd_gpy_ratio(args):
    from .polys import best_power_r, gpy_ratio, gpy_ratio_general

    if args.coeffs is not None:
        r, method = None, "general"
        ratio = gpy_ratio_general(_parse_poly(args.coeffs, args.k), args.k, args.theta)
        meta = _meta(args, k=args.k, theta=args.theta, coeffs=args.coeffs)
    else:
        r, method = args.r or 0, "closed-form"
        ratio = gpy_ratio(args.k, r, args.theta)
        meta = _meta(args, k=args.k, r=r, theta=args.theta)
        meta["best_r"] = best_power_r(args.k)
    row = {"k": args.k, "r": r, "theta": args.theta, "ratio": ratio, "method": method}
    return list(row), [row], meta


def _cmd_gpy_experiment(args):
    from .gpy import build_weights, quadratic_forms, require_level
    from .polys import PolynomialSpec
    from .tuples import OffsetTuple, default_truncation

    H = OffsetTuple.parse(args.offsets)
    profile = args.x + 1
    _guard(args.force, profile <= MAX_PROFILE,
           f"weight profile of {profile} entries beyond budget")
    R = args.R if args.R is not None else max(2, math.isqrt(math.isqrt(args.x)))
    require_level(R, args.x)
    degree = H.k + args.r
    _guard(args.force, degree <= MAX_POLY_DEGREE, f"degree k+r {degree} beyond budget")
    # the asymptotics take S(H) at the default truncation level
    _guard_level(args.force, H.k, default_truncation(H.offsets[-1], H.k))
    P = PolynomialSpec.power(H.k, args.r)
    w = build_weights(P, R)
    rows = [
        {
            "form": "denominator" if ev.j is None else "numerator",
            "j": ev.j,
            "direct_sum": ev.direct_sum,
            "form_value": ev.form_value,
            "asymptotic": ev.asymptotic,
        }
        for ev in quadratic_forms(w, H, args.x, args.j)
    ]
    meta = _meta(args, offsets=str(H), x=args.x, R=R, r=args.r, j=args.j)
    meta["theta"] = math.log(R) / math.log(args.x)
    return ["form", "j", "direct_sum", "form_value", "asymptotic"], rows, meta


def _cmd_inequality_scan(args):
    from .polys import RationalPoly, unfortunate_inequality

    require(args.k_min <= args.k_max and args.m_max >= 1,
            f"empty scan: k {args.k_min}..{args.k_max}, m 1..{args.m_max}")
    work = (args.k_max - args.k_min + 1) * args.m_max * (args.k_max + 2 * args.m_max)
    _guard(args.force, work <= MAX_SCAN_WORK, f"scan work {work} beyond budget")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        for m in range(1, args.m_max + 1):
            Q = RationalPoly([0] * m + [1])
            chk = unfortunate_inequality(Q, k)
            rows.append(
                {
                    "k": k,
                    "m": m,
                    "lhs": float(chk.lhs),
                    "rhs": float(chk.rhs),
                    "holds": chk.holds,
                }
            )
    meta = _meta(args, k_min=args.k_min, k_max=args.k_max, m_max=args.m_max)
    meta["all_hold"] = all(r["holds"] for r in rows)
    return ["k", "m", "lhs", "rhs", "holds"], rows, meta


def _cmd_ap_table(args):
    from .progressions import error_table

    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    _guard(args.force, args.q <= MAX_BV_MODULI, "q beyond budget")
    table = error_table(args.x, args.q)
    rows = [vars(rec) for rec in table.records]
    meta = _meta(args, x=args.x, q=args.q)
    meta["max_abs_error"] = table.max_abs_error
    meta["phi_q"] = len(table.records)
    meta["pi_x"] = table.pi_x
    meta["residual_classes_note"] = (
        "classes a with gcd(a,q)>1 hold at most the one prime dividing q"
    )
    return ["q", "a", "count", "expected", "error"], rows, meta


def _cmd_bv_scan(args):
    from .progressions import bv_scan, bv_scans, require_checkpoints

    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    _guard(args.force, args.q_max <= MAX_BV_MODULI, "q_max beyond budget")
    require_checkpoints(args.x, args.checkpoints)
    if args.sensitivity:
        try:
            require_checkpoints(args.x, 2 * args.checkpoints)
        except PreconditionError as exc:
            raise PreconditionError(f"--sensitivity doubles the grid: {exc}") from None
        # the doubled grid's top half is the plain grid: one scan gives both
        res, res2 = bv_scans(args.x, args.q_max, (args.checkpoints, 2 * args.checkpoints),
                             args.threads)
    else:
        res = bv_scan(args.x, args.q_max, args.checkpoints, args.threads)
    rows = [
        {
            "q": q,
            "max_abs_error": res.per_q[q],
            "checkpoint_argmax_y": res.argmax_y[q],
        }
        for q in sorted(res.per_q)
    ]
    meta = _meta(args, x=args.x, q_max=args.q_max, checkpoints=args.checkpoints)
    meta["total"] = res.total
    for A, v in res.normalized.items():
        meta[f"normalized_A{A}"] = v
    for A, v in res.reference_q_bound.items():
        meta[f"reference_q_bound_A{A}_B{24 * A + 46}"] = v
    meta["individual_q_bounds_note"] = (
        "per-modulus Siegel-type and GRH bounds are not computed here: "
        "their constants are ineffective or conditional; only the averaged "
        "scan above is evaluated"
    )
    if args.sensitivity:
        meta["sensitivity_total_2x_checkpoints"] = res2.total
        meta["sensitivity_delta"] = res2.total - res.total
    return ["q", "max_abs_error", "checkpoint_argmax_y"], rows, meta


def _cmd_montgomery(args):
    from .progressions import montgomery_ratios

    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    q_hi = args.q_max if args.q_max is not None else args.q_min
    # bounds the moduli count too, since every modulus is at least 1
    _guard(args.force, q_hi <= MAX_BV_MODULI, "q_max beyond budget")
    ratios = montgomery_ratios(args.x, args.q_min, q_hi, args.eps, args.threads)
    rows = [{"q": q, "ratio": ratio} for q, ratio in ratios.items()]
    best = max(rows, key=lambda row: row["ratio"])
    meta = _meta(args, x=args.x, q_min=args.q_min, q_max=q_hi, eps=args.eps)
    meta["max_ratio"] = best["ratio"]
    meta["argmax_q"] = best["q"]
    return ["q", "ratio"], rows, meta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Empirical prime-gap, tuple, sieve-weight, and progression analyses.",
    )
    parser.add_argument("--version", action="version", version=f"primegaps {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the modulus scans of bv-scan and "
                             "montgomery, at most one per core and one per top (other "
                             "subcommands accept and ignore it); output is identical "
                             "at any value >= 1")
    guarded = argparse.ArgumentParser(add_help=False, parents=[common])
    guarded.add_argument("--force", action="store_true",
                         help="override the size guardrails")
    seeded = argparse.ArgumentParser(add_help=False, parents=[guarded])
    seeded.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED}, never the clock)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, handler, help, parent=guarded):
        sp = sub.add_parser(name, parents=[parent], help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = add_parser("gaps", _cmd_gaps, "normalized prime-gap histogram")
    sp.add_argument("--x-lo", type=parse_exact_int, default=3)
    sp.add_argument("--x-hi", type=parse_exact_int, required=True)

    sp = add_parser("intervals", _cmd_intervals,
                    "prime counts in random unit-mean intervals", seeded)
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--n-samples", type=parse_exact_int, required=True)

    sp = add_parser("cramer", _cmd_cramer, "Bernoulli simulation of the prime indicator", seeded)
    sp.add_argument("--n-max", type=parse_exact_int, required=True)

    sp = add_parser("longgap", _cmd_longgap, "factorial/primorial composite runs", common)
    sp.add_argument("--kind", choices=("factorial", "primorial"), required=True)
    sp.add_argument("--m", type=parse_exact_int, required=True)

    sp = add_parser("tuple", _cmd_tuple, "admissibility and singular series of an offset tuple")
    sp.add_argument("--offsets", required=True, help="comma-separated, e.g. 0,2,6")
    sp.add_argument("--L", type=parse_exact_int, default=None,
                    help="Euler-product truncation level")

    sp = add_parser("hl-count", _cmd_hl_count, "tuple counts against the k-tuple prediction")
    sp.add_argument("--offsets", required=True)
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--L", type=parse_exact_int, default=None)

    sp = add_parser("gallagher", _cmd_gallagher, "singular-series average over k-subsets of [1,h]")
    sp.add_argument("--k", type=parse_exact_int, required=True)
    sp.add_argument("--h", type=parse_exact_int, required=True)
    sp.add_argument("--L", type=parse_exact_int, default=None)

    sp = add_parser("gpy-ratio", _cmd_gpy_ratio, "detection ratio: closed form or general P",
                    common)
    sp.add_argument("--k", type=parse_exact_int, required=True)
    sp.add_argument("--theta", type=float, required=True)
    # default None, so that an explicit --r 0 still conflicts with --coeffs
    poly = sp.add_mutually_exclusive_group()
    poly.add_argument("--r", type=parse_exact_int, default=None,
                      help="closed form for P(y) = y^(k+r) (default r = 0)")
    poly.add_argument("--coeffs", default=None,
                      help="P coefficients c0,c1,... (low order first), instead of --r")

    sp = add_parser("gpy-experiment", _cmd_gpy_experiment,
                    "direct sums vs quadratic forms vs asymptotics")
    sp.add_argument("--offsets", required=True)
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--R", type=parse_exact_int, default=None,
                    help="weight level (default: floor(x^(1/4)))")
    sp.add_argument("--r", type=parse_exact_int, default=0, help="P(y) = y^(k+r)")
    sp.add_argument("--j", type=parse_exact_int, default=1,
                    help="1-based offset index made prime in the numerator")

    sp = add_parser("inequality-scan", _cmd_inequality_scan,
                    "the 4/k bound over monomial test functions")
    sp.add_argument("--k-min", type=parse_exact_int, default=2)
    sp.add_argument("--k-max", type=parse_exact_int, required=True)
    sp.add_argument("--m-max", type=parse_exact_int, required=True)

    sp = add_parser("ap-table", _cmd_ap_table, "per-residue prime counts and error terms")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q", type=parse_exact_int, required=True)

    sp = add_parser("bv-scan", _cmd_bv_scan, "averaged progression-error scan")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q-max", type=parse_exact_int, required=True)
    sp.add_argument("--checkpoints", type=parse_exact_int, default=64)
    sp.add_argument("--sensitivity", action="store_true",
                    help="also run with doubled checkpoints and report the delta")

    sp = add_parser("montgomery", _cmd_montgomery,
                    "observed constants in the conjectured error bound")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q-min", type=parse_exact_int, default=2)
    sp.add_argument("--q-max", type=parse_exact_int, default=None)
    sp.add_argument("--eps", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        require(args.threads >= 1, f"--threads must be at least 1, got {args.threads}")
        columns, rows, meta = args.handler(args)
        emit(columns, rows, meta, args.format, _resolve_out(args.out))
        return 0
    except PreconditionError as exc:
        print(f"primegaps: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, OSError) as exc:
        print(f"primegaps: runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
