"""The benchmark's workloads: the CLI commands of one session and the checks
their outputs must pass.

A session is a fixed list of `primegaps` subcommands.  The workload seed
only chooses among inputs of equal cost (the start of the window at 1e12,
a tuple or its mirror image) and is the RNG seed of the two Monte Carlo
commands, so every seed asks for the same amount of work.  Every check
holds for every seed: published prime counts, identities between fields
of one output, and values recomputed here with the standard library.
NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# Passed on every command.  The flag has no effect yet; fixing it here means
# that once it does, the benchmark measures the same setting on both sides.
THREADS = "2"

PI = {10**7: 664_579, 10**8: 5_761_455}  # published values of pi(x)
TWIN_COUNT_1E8 = 440_312  # n <= 1e8 with n and n + 2 both prime
TWIN_SERIES = 1.3203  # S({0,2}), twice the twin-prime constant
TUPLE_10 = (0, 2, 6, 8, 12, 18, 20, 26, 30, 32)  # admissible, diameter 32


class CheckFailed(Exception):
    """An output failed one of the benchmark's checks."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments after `primegaps` and its output check."""

    args: tuple[str, ...]
    check: Callable[[dict], None]

    @property
    def subcommand(self) -> str:
        return self.args[0]

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--format", "json", "--threads", THREADS]


# ---------------------------------------------------------------------------
# small stdlib oracles

def _primes_upto(n: int) -> list[int]:
    bits = bytearray([1]) * (n + 1)
    bits[: min(2, n + 1)] = bytes(min(2, n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if bits[p]:
            bits[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, b in enumerate(bits) if b]


def _singular_series(offsets: tuple[int, ...], L: int) -> float:
    """Truncated Euler product for S(H) over primes <= L."""
    k = len(offsets)
    value = 1.0
    for ell in _primes_upto(L):
        nu = len({h % ell for h in offsets})
        value *= (1.0 - nu / ell) * (1.0 - 1.0 / ell) ** (-k)
    return value


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# output checks; each takes the parsed JSON output of one command

def _check_subcommand(out: dict, name: str) -> None:
    _expect(out["meta"]["subcommand"] == name, f"meta.subcommand is not {name}")


def check_gap_histogram(out: dict) -> None:
    _check_subcommand(out, "gaps")
    total = out["meta"]["total_gaps"]
    _expect(total > 0, "no gaps counted")
    _expect(sum(r["count"] for r in out["rows"]) == total, "histogram counts do not sum to total_gaps")


def check_gaps_upto_1e8(out: dict) -> None:
    check_gap_histogram(out)
    # one gap per prime in [3, 1e8)
    _expect(out["meta"]["total_gaps"] == PI[10**8] - 1, "total_gaps is not pi(1e8) - 1")


def check_twin_count(out: dict) -> None:
    _check_subcommand(out, "hl-count")
    row = out["rows"][0]
    _expect(row["actual"] == TWIN_COUNT_1E8, f"twin count {row['actual']} != {TWIN_COUNT_1E8}")
    x = row["x"]
    series = row["predicted"] * math.log(x) ** 2 / x
    _expect(abs(series - TWIN_SERIES) <= 5e-4, f"S(0,2) = {series} is not 1.3203 +- 5e-4")


def check_intervals(out: dict) -> None:
    _check_subcommand(out, "intervals")
    fractions = [r["empirical_fraction"] for r in out["rows"]]
    _expect(abs(math.fsum(fractions) - 1.0) <= 1e-9, "interval-count fractions do not sum to 1")


def check_cramer(out: dict) -> None:
    _check_subcommand(out, "cramer")
    # the last simulated prime has no successor, so it contributes no gap
    gaps = sum(r["count"] for r in out["rows"])
    _expect(gaps == out["meta"]["simulated_count"] - 1, "histogram counts do not sum to simulated_count - 1")


def check_ap_table(out: dict) -> None:
    _check_subcommand(out, "ap-table")
    meta, params = out["meta"], out["meta"]["parameters"]
    x, q = params["x"], params["q"]
    _expect(meta["pi_x"] == PI[x], f"pi_x {meta['pi_x']} != pi({x}) = {PI[x]}")
    _expect(len(out["rows"]) == meta["phi_q"], "one row per reduced class expected")
    reduced = sum(r["count"] for r in out["rows"])
    dividing = sum(1 for p in _primes_upto(min(q, x)) if q % p == 0)
    _expect(reduced + dividing == meta["pi_x"], "reduced-class counts plus primes dividing q != pi_x")


def check_longgap(out: dict) -> None:
    _check_subcommand(out, "longgap")
    row = out["rows"][0]
    m = row["m"]
    _expect(row["N"] == math.prod(_primes_upto(m)), "N is not the primorial of m")
    _expect(row["guaranteed_run"] == m - 1, "guaranteed_run is not m - 1")
    _expect(row["observed_run"] >= row["guaranteed_run"], "observed run shorter than guaranteed")


def check_gpy_experiment(out: dict) -> None:
    _check_subcommand(out, "gpy-experiment")
    params = out["meta"]["parameters"]
    _expect(params["R"] == math.isqrt(math.isqrt(params["x"])), "R is not floor(x^(1/4))")
    _expect([r["form"] for r in out["rows"]] == ["denominator", "numerator"], "expected both forms")
    for row in out["rows"]:
        for key in ("direct_sum", "form_value", "asymptotic"):
            v = row[key]
            _expect(isinstance(v, float) and math.isfinite(v) and v > 0, f"{row['form']} {key} = {v!r}")


def check_gallagher(out: dict) -> None:
    _check_subcommand(out, "gallagher")
    row = out["rows"][0]
    _expect(row["rhs"] == math.comb(row["h"], row["k"]), "rhs is not binomial(h, k)")
    _expect(row["ratio"] > 0 and _close(row["ratio"], row["lhs"] / row["rhs"], 1e-9), "ratio != lhs / rhs")


def check_inequality_scan(out: dict) -> None:
    _check_subcommand(out, "inequality-scan")
    params = out["meta"]["parameters"]
    n = (params["k_max"] - params["k_min"] + 1) * params["m_max"]
    _expect(len(out["rows"]) == n, f"expected {n} rows")
    _expect(out["meta"]["all_hold"] is True, "all_hold is not true")
    _expect(all(r["lhs"] < r["rhs"] for r in out["rows"]), "some row has lhs >= rhs")


def check_gpy_ratio(out: dict) -> None:
    # both forms are asked for P(y) = y^8 at k = 7, theta = 1/2, where the
    # closed form is exactly 3/20
    _check_subcommand(out, "gpy-ratio")
    ratio = out["rows"][0]["ratio"]
    _expect(abs(ratio - 0.15) <= 1e-9, f"gpy ratio {ratio} != 0.15")


def check_tuple(out: dict) -> None:
    _check_subcommand(out, "tuple")
    row = out["rows"][0]
    offsets = tuple(int(h) for h in row["offsets"].split(","))
    _expect(row["admissible"] is True and row["is_zero"] is False, "tuple reported inadmissible")
    _expect(row["k"] == len(offsets), "k is not the tuple size")
    expected = _singular_series(offsets, row["truncation_L"])
    _expect(_close(row["value"], expected, 1e-9), f"S(H) = {row['value']}, stdlib product gives {expected}")


def check_bv_scan(out: dict) -> None:
    _check_subcommand(out, "bv-scan")
    q_max = out["meta"]["parameters"]["q_max"]
    _expect([r["q"] for r in out["rows"]] == list(range(1, q_max + 1)), "one row per modulus expected")
    total = math.fsum(r["max_abs_error"] for r in out["rows"])
    _expect(_close(out["meta"]["total"], total, 1e-9), "total is not the sum of per-modulus maxima")


def check_montgomery(out: dict) -> None:
    _check_subcommand(out, "montgomery")
    params = out["meta"]["parameters"]
    rows = out["rows"]
    _expect([r["q"] for r in rows] == list(range(params["q_min"], params["q_max"] + 1)), "one row per modulus expected")
    best = max(rows, key=lambda r: r["ratio"])
    _expect(out["meta"]["max_ratio"] == best["ratio"], "max_ratio is not the largest row")


# ---------------------------------------------------------------------------
# workloads

def _gap_stats(rng: random.Random, seed: int) -> list[Command]:
    lo = 10**12 + rng.randrange(16) * 10**9
    return [
        Command(("gaps", "--x-hi", "1e8"), check_gaps_upto_1e8),
        # --force: the guard tests x_hi rather than the 5e7-wide span
        Command(("gaps", "--x-lo", str(lo), "--x-hi", str(lo + 5 * 10**7), "--force"), check_gap_histogram),
        Command(("hl-count", "--offsets", "0,2", "--x", "1e8"), check_twin_count),
        Command(("intervals", "--x", "2e7", "--n-samples", "1e5", "--seed", str(seed)), check_intervals),
        Command(("cramer", "--n-max", "5e7", "--seed", str(seed)), check_cramer),
        Command(("ap-table", "--x", "1e8", "--q", "30"), check_ap_table),
        Command(("longgap", "--kind", "primorial", "--m", "52"), check_longgap),
    ]


def _mirror(offsets: tuple[int, ...]) -> tuple[int, ...]:
    top = offsets[-1]
    return tuple(sorted(top - h for h in offsets))


def _gpy_forms(rng: random.Random, seed: int) -> list[Command]:
    triple = rng.choice([(0, 2, 6), _mirror((0, 2, 6))])
    tuple_10 = rng.choice([TUPLE_10, _mirror(TUPLE_10)])
    return [
        Command(("gpy-experiment", "--offsets", "0,2", "--x", "1e7"), check_gpy_experiment),
        Command(("gpy-experiment", "--offsets", ",".join(map(str, triple)), "--x", "3e6", "--r", "1"),
                check_gpy_experiment),
        Command(("gallagher", "--k", "3", "--h", "100"), check_gallagher),
        Command(("inequality-scan", "--k-max", "20", "--m-max", "10"), check_inequality_scan),
        Command(("gpy-ratio", "--k", "7", "--r", "1", "--theta", "0.5"), check_gpy_ratio),
        Command(("gpy-ratio", "--k", "7", "--theta", "0.5", "--coeffs", "0,0,0,0,0,0,0,0,1"), check_gpy_ratio),
        Command(("tuple", "--offsets", ",".join(map(str, tuple_10))), check_tuple),
    ]


def _ap_scan(rng: random.Random, seed: int) -> list[Command]:
    return [
        Command(("bv-scan", "--x", "1e7", "--q-max", "1000"), check_bv_scan),
        Command(("montgomery", "--x", "1e6", "--q-max", "1000"), check_montgomery),
        Command(("montgomery", "--x", "1e7", "--q-max", "300"), check_montgomery),
        Command(("ap-table", "--x", "1e7", "--q", "210"), check_ap_table),
    ]


WORKLOADS = {"gap-stats": _gap_stats, "gpy-forms": _gpy_forms, "ap-scan": _ap_scan}


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one session of the workload, made from the seed."""
    return WORKLOADS[workload](random.Random(seed), seed)
