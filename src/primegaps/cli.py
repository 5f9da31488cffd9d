"""Command-line front end: one subcommand per analysis, CSV/JSON output.

Every run is deterministic for a fixed argument list (the default seed is
the constant 0, never the clock), so identical invocations produce
byte-identical files.  Validation failures exit 2 naming the violated
precondition; runtime failures (overflow, budgets, I/O) exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .errors import BudgetExceededError, PreconditionError, require
from .gaps import (
    CORRECTED_LIMSUP_CONSTANT,
    CRAMER_LIMSUP_CONSTANT,
    CramerConfig,
    cramer_simulate,
    exponential_bin_mass,
    gap_histogram,
    interval_count_distribution,
    long_gap_construct,
    poisson_unit_pmf,
)
from .gpy import (
    InequalityCheck,
    PolynomialSpec,
    RationalPoly,
    best_power_r,
    build_weights,
    denominator_form,
    gpy_ratio,
    gpy_ratio_general,
    numerator_form,
    require_level,
    unfortunate_inequality,
)
from .progressions import bv_scan, error_table, montgomery_ratios, require_checkpoints
from .sieve import primes_upto
from .tuples import (
    OffsetTuple,
    default_truncation,
    gallagher_average,
    hl_count,
    singular_series,
)

DEFAULT_SEED = 0
OUTDIR_ENV = "PRIMEGAPS_OUTDIR"

# refuse-by-default work limits; --force overrides
MAX_SIEVE_SPAN = 2_000_000_000
MAX_SAMPLES = 100_000_000
MAX_CRAMER = 200_000_000
MAX_BV_MODULI = 100_000
SUBSET_BUDGET = 10_000_000


def parse_exact_int(text: str) -> int:
    """Integer argument, accepting scientific notation like 1e8 exactly."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    return int(d)


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
    # singular_series holds a k x pi(L) residue matrix and a sorted copy
    _guard(force, k * L <= MAX_SIEVE_SPAN, f"k*L {k * L} beyond singular-series budget")


def _meta(args, **params) -> dict:
    return {
        "subcommand": args.cmd,
        "version": __version__,
        "seed": getattr(args, "seed", DEFAULT_SEED),
        "parameters": params,
    }


def _histogram_rows(hist):
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
    _guard(args.force, args.n_max <= MAX_CRAMER, f"n_max {args.n_max} beyond budget")
    result = cramer_simulate(CramerConfig(n_max=args.n_max, seed=args.seed))
    columns, rows = _histogram_rows(result.histogram)
    meta = _meta(args, n_max=args.n_max)
    meta["simulated_count"] = result.simulated_count
    meta["expected_count"] = result.expected_count
    meta["count_sigma"] = result.count_sigma
    return columns, rows, meta


def _cmd_longgap(args):
    report = long_gap_construct(args.kind, args.m)
    row = {
        "construction": report.construction,
        "m": report.m,
        "N": report.N,
        "run_start": report.run_start,
        "guaranteed_run": report.guaranteed_run,
        "observed_run": report.observed_run,
        "observed_run_over_log_sq": report.observed_run_over_log_sq,
        "rankin_bound_at_N": report.rankin_bound_at_N,
        "cramer_limsup_constant": report.cramer_limsup_constant,
        "corrected_limsup_constant": report.corrected_limsup_constant,
    }
    return list(row), [row], _meta(args, kind=args.kind, m=args.m)


def _cmd_tuple(args):
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
        "actual": res.actual,
        "predicted": res.predicted,
        "ratio": res.actual / res.predicted if res.predicted else math.nan,
    }
    return list(row), [row], _meta(args, offsets=str(H), x=args.x)


def _cmd_gallagher(args):
    budget = None if args.force else SUBSET_BUDGET
    L = args.L if args.L is not None else default_truncation(args.h, args.k)
    _guard_level(args.force, args.k, L)
    res = gallagher_average(args.k, args.h, L, budget=budget)
    row = {
        "k": args.k,
        "h": args.h,
        "L": L,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "ratio": res.ratio,
    }
    return list(row), [row], _meta(args, k=args.k, h=args.h, L=L)


def _parse_poly(text: str, k: int) -> PolynomialSpec:
    try:
        coeffs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse coefficients {text!r}: {exc}")
    return PolynomialSpec.from_coeffs(coeffs, k)


def _cmd_gpy_ratio(args):
    if args.coeffs is not None:
        P = _parse_poly(args.coeffs, args.k)
        ratio = gpy_ratio_general(P, args.k, args.theta)
        row = {
            "k": args.k,
            "r": None,
            "theta": args.theta,
            "ratio": ratio,
            "method": "general",
        }
        meta = _meta(args, k=args.k, theta=args.theta, coeffs=args.coeffs)
    else:
        ratio = gpy_ratio(args.k, args.r, args.theta)
        row = {
            "k": args.k,
            "r": args.r,
            "theta": args.theta,
            "ratio": ratio,
            "method": "closed-form",
        }
        meta = _meta(args, k=args.k, r=args.r, theta=args.theta)
        meta["best_r"] = best_power_r(args.k)
    return list(row), [row], meta


def _cmd_gpy_experiment(args):
    H = OffsetTuple.parse(args.offsets)
    _guard(args.force, 2 * args.x <= MAX_SIEVE_SPAN, "2x beyond sieve budget")
    R = args.R if args.R is not None else max(2, math.isqrt(math.isqrt(args.x)))
    require_level(R, args.x)
    P = PolynomialSpec.power(H.k, args.r)
    w = build_weights(P, R)
    rows = []
    den = denominator_form(w, H, args.x)
    rows.append(
        {
            "form": "denominator",
            "j": None,
            "direct_sum": den.direct_sum,
            "form_value": den.form_value,
            "asymptotic": den.asymptotic,
        }
    )
    if H.k >= 2:
        num = numerator_form(w, H, args.j, args.x)
        rows.append(
            {
                "form": "numerator",
                "j": args.j,
                "direct_sum": num.direct_sum,
                "form_value": num.form_value,
                "asymptotic": num.asymptotic,
            }
        )
    meta = _meta(args, offsets=str(H), x=args.x, R=R, r=args.r, j=args.j)
    meta["theta"] = math.log(R) / math.log(args.x)
    return ["form", "j", "direct_sum", "form_value", "asymptotic"], rows, meta


def _cmd_inequality_scan(args):
    require(args.k_min <= args.k_max and args.m_max >= 1,
            f"empty scan: k {args.k_min}..{args.k_max}, m 1..{args.m_max}")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        for m in range(1, args.m_max + 1):
            Q = RationalPoly([0] * m + [1])
            chk: InequalityCheck = unfortunate_inequality(Q, k)
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
    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    _guard(args.force, args.q <= MAX_BV_MODULI, "q beyond budget")
    table = error_table(args.x, args.q)
    rows = [
        {
            "q": rec.q,
            "a": rec.a,
            "count": rec.count,
            "expected": rec.expected,
            "error": rec.error,
        }
        for rec in table.records
    ]
    meta = _meta(args, x=args.x, q=args.q)
    meta["max_abs_error"] = table.max_abs_error
    meta["phi_q"] = len(table.records)
    meta["pi_x"] = len(primes_upto(args.x))
    meta["residual_classes_note"] = (
        "classes a with gcd(a,q)>1 hold at most the one prime dividing q"
    )
    return ["q", "a", "count", "expected", "error"], rows, meta


def _cmd_bv_scan(args):
    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    _guard(args.force, args.q_max <= MAX_BV_MODULI, "q_max beyond budget")
    require_checkpoints(args.x, args.checkpoints)
    if args.sensitivity:
        try:
            require_checkpoints(args.x, 2 * args.checkpoints)
        except PreconditionError as exc:
            raise PreconditionError(f"--sensitivity doubles the grid: {exc}") from None
    res = bv_scan(args.x, args.q_max, args.checkpoints)
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
        res2 = bv_scan(args.x, args.q_max, 2 * args.checkpoints)
        meta["sensitivity_total_2x_checkpoints"] = res2.total
        meta["sensitivity_delta"] = res2.total - res.total
    return ["q", "max_abs_error", "checkpoint_argmax_y"], rows, meta


def _cmd_montgomery(args):
    _guard(args.force, args.x <= MAX_SIEVE_SPAN, "x beyond sieve budget")
    q_hi = args.q_max if args.q_max is not None else args.q_min
    # bounds the moduli count too, since every modulus is at least 1
    _guard(args.force, q_hi <= MAX_BV_MODULI, "q_max beyond budget")
    ratios = montgomery_ratios(args.x, args.q_min, q_hi, args.eps)
    rows = [{"q": q, "ratio": ratio} for q, ratio in ratios.items()]
    best = max(rows, key=lambda row: row["ratio"])
    meta = _meta(args, x=args.x, q_min=args.q_min, q_max=q_hi, eps=args.eps)
    meta["max_ratio"] = best["ratio"]
    meta["argmax_q"] = best["q"]
    return ["q", "ratio"], rows, meta


_HANDLERS = {
    "gaps": _cmd_gaps,
    "intervals": _cmd_intervals,
    "cramer": _cmd_cramer,
    "longgap": _cmd_longgap,
    "tuple": _cmd_tuple,
    "hl-count": _cmd_hl_count,
    "gallagher": _cmd_gallagher,
    "gpy-ratio": _cmd_gpy_ratio,
    "gpy-experiment": _cmd_gpy_experiment,
    "inequality-scan": _cmd_inequality_scan,
    "ap-table": _cmd_ap_table,
    "bv-scan": _cmd_bv_scan,
    "montgomery": _cmd_montgomery,
}


def _add_common(sp: argparse.ArgumentParser, seeded: bool = False) -> None:
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="accepted for compatibility; no subcommand uses it, "
                         "so output is identical at any value")
    sp.add_argument("--force", action="store_true",
                    help="override the size guardrails")
    if seeded:
        sp.add_argument("--seed", type=parse_exact_int, default=DEFAULT_SEED,
                        help=f"RNG seed (default {DEFAULT_SEED}, never the clock)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primegaps",
        description="Empirical prime-gap, tuple, sieve-weight, and progression analyses.",
    )
    parser.add_argument("--version", action="version", version=f"primegaps {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gaps", help="normalized prime-gap histogram")
    sp.add_argument("--x-lo", type=parse_exact_int, default=3)
    sp.add_argument("--x-hi", type=parse_exact_int, required=True)
    _add_common(sp)

    sp = sub.add_parser("intervals", help="prime counts in random unit-mean intervals")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--n-samples", type=parse_exact_int, required=True)
    _add_common(sp, seeded=True)

    sp = sub.add_parser("cramer", help="Bernoulli simulation of the prime indicator")
    sp.add_argument("--n-max", type=parse_exact_int, required=True)
    _add_common(sp, seeded=True)

    sp = sub.add_parser("longgap", help="factorial/primorial composite runs")
    sp.add_argument("--kind", choices=("factorial", "primorial"), required=True)
    sp.add_argument("--m", type=parse_exact_int, required=True)
    _add_common(sp)

    sp = sub.add_parser("tuple", help="admissibility and singular series of an offset tuple")
    sp.add_argument("--offsets", required=True, help="comma-separated, e.g. 0,2,6")
    sp.add_argument("--L", type=parse_exact_int, default=None,
                    help="Euler-product truncation level")
    _add_common(sp)

    sp = sub.add_parser("hl-count", help="tuple counts against the k-tuple prediction")
    sp.add_argument("--offsets", required=True)
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--L", type=parse_exact_int, default=None)
    _add_common(sp)

    sp = sub.add_parser("gallagher", help="singular-series average over k-subsets of [1,h]")
    sp.add_argument("--k", type=parse_exact_int, required=True)
    sp.add_argument("--h", type=parse_exact_int, required=True)
    sp.add_argument("--L", type=parse_exact_int, default=None)
    _add_common(sp)

    sp = sub.add_parser("gpy-ratio", help="detection ratio: closed form or general P")
    sp.add_argument("--k", type=parse_exact_int, required=True)
    sp.add_argument("--r", type=parse_exact_int, default=0)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--coeffs", default=None,
                    help="optional P coefficients c0,c1,... (low order first)")
    _add_common(sp)

    sp = sub.add_parser("gpy-experiment", help="direct sums vs quadratic forms vs asymptotics")
    sp.add_argument("--offsets", required=True)
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--R", type=parse_exact_int, default=None,
                    help="weight level (default: floor(x^(1/4)))")
    sp.add_argument("--r", type=parse_exact_int, default=0, help="P(y) = y^(k+r)")
    sp.add_argument("--j", type=parse_exact_int, default=1,
                    help="1-based offset index made prime in the numerator")
    _add_common(sp)

    sp = sub.add_parser("inequality-scan", help="the 4/k bound over monomial test functions")
    sp.add_argument("--k-min", type=parse_exact_int, default=2)
    sp.add_argument("--k-max", type=parse_exact_int, required=True)
    sp.add_argument("--m-max", type=parse_exact_int, required=True)
    _add_common(sp)

    sp = sub.add_parser("ap-table", help="per-residue prime counts and error terms")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q", type=parse_exact_int, required=True)
    _add_common(sp)

    sp = sub.add_parser("bv-scan", help="averaged progression-error scan")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q-max", type=parse_exact_int, required=True)
    sp.add_argument("--checkpoints", type=parse_exact_int, default=64)
    sp.add_argument("--sensitivity", action="store_true",
                    help="also run with doubled checkpoints and report the delta")
    _add_common(sp)

    sp = sub.add_parser("montgomery", help="observed constants in the conjectured error bound")
    sp.add_argument("--x", type=parse_exact_int, required=True)
    sp.add_argument("--q-min", type=parse_exact_int, default=2)
    sp.add_argument("--q-max", type=parse_exact_int, default=None)
    sp.add_argument("--eps", type=float, default=0.0)
    _add_common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows, meta = _HANDLERS[args.cmd](args)
        emit(columns, rows, meta, args.format, _resolve_out(args.out))
        return 0
    except PreconditionError as exc:
        print(f"primegaps: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, OverflowError, OSError) as exc:
        print(f"primegaps: runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
