import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from primegaps import progressions
from primegaps.cli import (
    MAX_BV_MODULI, MAX_CRAMER, MAX_SAMPLES, MAX_SIEVE_SPAN, SUBSET_BUDGET, _json_clean,
    build_parser, emit, fmt_value, main, parse_exact_int, render,
)

from conftest import assert_no_child, package_env, peak_rss_kib

ALL_SUBCOMMANDS = [
    "gaps", "intervals", "cramer", "longgap", "tuple", "hl-count", "gallagher",
    "gpy-ratio", "gpy-experiment", "inequality-scan", "ap-table", "bv-scan",
    "montgomery",
]

# the subcommands without a size guardrail, and so without --force
UNGUARDED = ("longgap", "gpy-ratio")

# small, fast argument sets used for determinism runs
FAST_ARGS = {
    "gaps": ["--x-lo", "3", "--x-hi", "20000"],
    "intervals": ["--x", "2000", "--n-samples", "500", "--seed", "9"],
    "cramer": ["--n-max", "30000", "--seed", "4"],
    "longgap": ["--kind", "primorial", "--m", "7"],
    "tuple": ["--offsets", "0,2,6"],
    "hl-count": ["--offsets", "0,2", "--x", "10000"],
    "gallagher": ["--k", "2", "--h", "60", "--L", "200"],
    "gpy-ratio": ["--k", "7", "--r", "1", "--theta", "0.5"],
    "gpy-experiment": ["--offsets", "0,2", "--x", "5000", "--R", "8"],
    "inequality-scan": ["--k-max", "5", "--m-max", "4"],
    "ap-table": ["--x", "5000", "--q", "12"],
    "bv-scan": ["--x", "2000", "--q-max", "20", "--checkpoints", "8"],
    "montgomery": ["--x", "5000", "--q-min", "2", "--q-max", "12"],
}


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse exits directly
            code = exc.code if isinstance(exc.code, int) else 0
    return code, buf.getvalue()


def run_cli_process(argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m primegaps.cli argv` in a child that imports this copy of the package."""
    return subprocess.run([sys.executable, "-m", "primegaps.cli", *argv], capture_output=True,
                          text=True, env=package_env(), **kwargs)


def test_every_subcommand_has_help():
    for cmd in ALL_SUBCOMMANDS:
        code, out = run_cli([cmd, "--help"])
        assert code == 0
        for flag in ("--out", "--format", "--threads"):
            assert flag in out, (cmd, flag)
        assert ("--force" in out) == (cmd not in UNGUARDED), cmd
    for cmd in UNGUARDED:
        assert run_cli([cmd, *FAST_ARGS[cmd], "--force"]) == (2, ""), cmd


def test_parser_covers_exactly_the_published_subcommands():
    parser = build_parser()
    subs = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert sorted(subs.choices) == sorted(ALL_SUBCOMMANDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_determinism_all_subcommands(fmt):
    for cmd in ALL_SUBCOMMANDS:
        argv = [cmd, *FAST_ARGS[cmd], "--format", fmt]
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2 == 0, (cmd, out1)
        assert out1 == out2, cmd


def test_csv_header_matches_json_row_keys():
    for cmd, args in FAST_ARGS.items():
        _, csv_out = run_cli([cmd, *args])
        _, json_out = run_cli([cmd, *args, "--format", "json"])
        header = csv_out.splitlines()[0].split(",")
        rows = json.loads(json_out)["rows"]
        assert rows, cmd
        for row in rows:
            assert list(row) == header, cmd


def test_output_independent_of_threads():
    for cmd in ("gaps", "cramer", "bv-scan", "montgomery", "ap-table"):
        base = [cmd, *FAST_ARGS[cmd]]
        _, out1 = run_cli(base + ["--threads", "1"])
        _, out4 = run_cli(base + ["--threads", "4"])
        assert out1 == out4


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exits_2_on_every_subcommand(threads, capsys):
    for cmd in ALL_SUBCOMMANDS:
        code = main([cmd, *FAST_ARGS[cmd], "--threads", threads])
        captured = capsys.readouterr()
        assert code == 2, cmd
        assert captured.out == "", cmd
        assert "invalid arguments: --threads must be at least 1" in captured.err, cmd


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the scans walk every chain in-process")
def test_scan_workers_bounded_by_tops_and_cores(two_recorded_cores, monkeypatch):
    serial_montgomery = run_cli(["montgomery", "--x", "5000", "--q-min", "5", "--q-max", "5"])
    serial_bv = run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--threads", "1"])
    serial_sensitivity = run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--checkpoints", "8",
                                  "--sensitivity", "--threads", "1"])
    asked = []

    def recording_chains(chain, tops, workers):
        # records the workers asked for and walks every chain in this
        # process, so that a large patched core count forks nothing
        asked.append(workers)
        return [pair for top in tops for pair in chain(top)]

    with monkeypatch.context() as patch:
        patch.setattr(progressions, "_forked_chains", recording_chains)
        # one modulus is one top, walked in this process: no child is forked
        assert run_cli(["montgomery", "--x", "5000", "--q-min", "5", "--q-max", "5",
                        "--threads", "10000"]) == serial_montgomery
        assert asked == []
        # q in (10, 20] are the tops of q <= 20; two cores bound the workers
        assert run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--threads", "10000"]) == serial_bv
        assert asked == [2]
        # with cores to spare, the tops bound the workers of every scan, and
        # --sensitivity scans once
        patch.setattr(os, "cpu_count", lambda: 64)
        asked.clear()
        assert run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--checkpoints", "8",
                        "--sensitivity", "--threads", "10000"]) == serial_sensitivity
        assert asked == [10]
        asked.clear()
        assert run_cli(["montgomery", *FAST_ARGS["montgomery"], "--threads", "10000"])[0] == 0
        assert asked == [6]
        # one core walks the chains in this process
        patch.setattr(os, "cpu_count", lambda: 1)
        asked.clear()
        assert run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--threads", "10000"]) == serial_bv
        assert asked == []
    assert two_recorded_cores == []
    # for real: two cores fork two children, whatever --threads asks, and
    # reap both
    assert run_cli(["bv-scan", "--x", "2000", "--q-max", "20", "--threads", "10000"]) == serial_bv
    assert len(two_recorded_cores) == 2 and os.getpid() not in two_recorded_cores
    assert_no_child()


def test_gpy_ratio_headline():
    code, out = run_cli(["gpy-ratio", "--k", "7", "--r", "1", "--theta", "0.5"])
    assert code == 0
    assert "0.15" in out


@pytest.mark.parametrize("argv", [["gaps", "--x-hi", "1e5"], ["cramer", "--n-max", "1e5"]])
def test_histogram_rows_are_the_fixed_bins(argv):
    from primegaps.gaps import BIN_BOUNDS, BIN_MASS

    expected = {"bin_lo": BIN_BOUNDS[:-1], "bin_hi": BIN_BOUNDS[1:], "predicted_mass": BIN_MASS}
    assert BIN_BOUNDS[-1] == math.inf
    code, out = run_cli([*argv, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 41
    for column, values in expected.items():
        assert [row[column] for row in rows] == [float(f"{v:.12g}") for v in values.tolist()]
    code, out = run_cli(argv)
    assert code == 0
    table = list(csv.DictReader(io.StringIO(out)))
    assert len(table) == 41
    for column, values in expected.items():
        assert [row[column] for row in table] == [f"{v:.12g}" for v in values.tolist()]


def test_tuple_inadmissible_witness():
    code, out = run_cli(["tuple", "--offsets", "0,2,4"])
    assert code == 0
    row = out.splitlines()[1]
    assert "false" in row and ",3," in row


def test_tuple_json_fields():
    code, out = run_cli(["tuple", "--offsets", "0,2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    for field in ("value", "truncation_L", "tail_bound", "is_zero", "witness"):
        assert field in row
    assert payload["meta"]["seed"] == 0


def test_missing_required_flag_exits_2(tmp_path):
    out_file = tmp_path / "nothing.csv"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["gaps", "--out", str(out_file)])
    assert exc.value.code == 2
    assert not out_file.exists()


def test_precondition_failure_exits_2_without_partial_output(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "bad.csv"
    code = main(["tuple", "--offsets", "0,2", "--L", "2", "--out", str(out_file)])
    assert code == 2
    assert not out_file.exists()
    assert "L-too-small" in capsys.readouterr().err

    def refuse(*args):
        raise AssertionError("primes counted before the precondition check")

    monkeypatch.setattr(progressions, "primes_upto", refuse)
    # empty ranges, moduli beyond x, and checkpoint grids reaching below
    # li's domain, all refused before any prime is counted
    for argv, message in (
        (["montgomery", "--x", "1000", "--q-min", "10", "--q-max", "5"], "empty modulus range"),
        (["montgomery", "--x", "100", "--q-max", "200"], "q_max 200 exceeds x 100"),
        (["inequality-scan", "--k-min", "5", "--k-max", "3", "--m-max", "4"], "empty scan"),
        (["inequality-scan", "--k-max", "3", "--m-max", "0"], "empty scan"),
        (["bv-scan", "--x", "100", "--q-max", "5"], "64 checkpoints"),
        (["bv-scan", "--x", "1000", "--q-max", "5", "--checkpoints", "200"], "200 checkpoints"),
        (["bv-scan", "--x", "1000", "--q-max", "5", "--checkpoints", "0", "--sensitivity"],
         "at least one checkpoint"),
        (["gpy-experiment", "--offsets", "0", "--x", "1e4", "--j", "5"], "j must be in [1, 1]"),
    ):
        assert main([*argv, "--out", str(out_file)]) == 2
        assert not out_file.exists()
        assert message in capsys.readouterr().err


def assert_refused(err: str, size: int, limit: int) -> None:
    """The one refusal message names the refused size and its limit."""
    assert f" {size} beyond the budget of {limit} (pass --force to override)" in err, err


def test_guardrail_refuses_oversized_without_force(capsys):
    code = main(["gaps", "--x-hi", "100000000000"])
    assert code == 2
    # the window 3..1e11 plus isqrt(1e11) = 316227 base primes
    assert_refused(capsys.readouterr().err, 10**11 - 3 + 316227, MAX_SIEVE_SPAN)
    # the gaps budget bounds the window plus the base primes, not x_hi
    assert main(["gaps", "--x-lo", "1e12", "--x-hi", "1000000100000"]) == 0
    capsys.readouterr()
    assert main(["gaps", "--x-lo", "4e18", "--x-hi", "4000000000000000100"]) == 2
    assert_refused(capsys.readouterr().err, 100 + 2 * 10**9, MAX_SIEVE_SPAN)
    # one modulus past the cap is refused before any table is allocated
    q = str(MAX_BV_MODULI + 1)
    for argv in (["ap-table", "--x", "1000", "--q", q],
                 ["montgomery", "--x", "200000", "--q-min", q]):
        assert main(argv) == 2
        assert_refused(capsys.readouterr().err, MAX_BV_MODULI + 1, MAX_BV_MODULI)
    # the singular-series level L is bounded through k*L, default or given
    for argv, kL in ((["tuple", "--offsets", "0,1,10000000000"], 3 * 10**10),
                     (["tuple", "--offsets", "0,1", "--L", "1e10"], 2 * 10**10),
                     (["hl-count", "--offsets", "0,1", "--x", "1000", "--L", "1e10"], 2 * 10**10),
                     (["gallagher", "--k", "2", "--h", "2", "--L", "1e10"], 2 * 10**10)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "k*L" in err
        assert_refused(err, kL, MAX_SIEVE_SPAN)


@pytest.mark.parametrize("argv, entry, size, limit", [
    # the starts [x, 2x] plus the base primes: x + 1 + isqrt(2x), one past the budget
    (["intervals", "--x", "1999936756", "--n-samples", "10"],
     "gaps.interval_count_distribution", MAX_SIEVE_SPAN + 1, MAX_SIEVE_SPAN),
    (["intervals", "--x", "1000", "--n-samples", str(MAX_SAMPLES + 1)],
     "gaps.interval_count_distribution", MAX_SAMPLES + 1, MAX_SAMPLES),
    (["cramer", "--n-max", str(MAX_CRAMER + 1)], "gaps.cramer_simulate",
     MAX_CRAMER + 1, MAX_CRAMER),
    (["hl-count", "--offsets", "0,2", "--x", str(MAX_SIEVE_SPAN - 1)], "tuples.hl_count",
     MAX_SIEVE_SPAN + 1, MAX_SIEVE_SPAN),
    # three offset groups, each streaming x + h_k = 704,800,000 integers
    (["hl-count", "--offsets", "0,2400000,4800000", "--x", "7e8"], "tuples.hl_count",
     3 * 704_800_000, MAX_SIEVE_SPAN),
    (["ap-table", "--x", str(MAX_SIEVE_SPAN + 1), "--q", "12"], "progressions.error_table",
     MAX_SIEVE_SPAN + 1, MAX_SIEVE_SPAN),
    (["bv-scan", "--x", str(MAX_SIEVE_SPAN + 1), "--q-max", "20"], "progressions.bv_scan",
     MAX_SIEVE_SPAN + 1, MAX_SIEVE_SPAN),
    (["bv-scan", "--x", "1e6", "--q-max", str(MAX_BV_MODULI + 1)], "progressions.bv_scan",
     MAX_BV_MODULI + 1, MAX_BV_MODULI),
    (["montgomery", "--x", str(MAX_SIEVE_SPAN + 1), "--q-max", "20"],
     "progressions.montgomery_ratios", MAX_SIEVE_SPAN + 1, MAX_SIEVE_SPAN),
], ids=["intervals-span", "intervals-samples", "cramer", "hl-count-x", "hl-count-groups",
        "ap-table-x", "bv-scan-x", "bv-scan-q", "montgomery-x"])
def test_guardrail_refuses_before_work_and_force_reaches_it(argv, entry, size, limit,
                                                            monkeypatch, capsys):
    # the patch keeps a broken guard from running these sizes for real
    def refuse(*args):
        raise AssertionError("work started past the guardrail")

    monkeypatch.setattr(f"primegaps.{entry}", refuse)
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert_refused(capsys.readouterr().err, size, limit)
    with pytest.raises(AssertionError, match="past the guardrail"):
        main([*argv, "--force"])


def test_hl_count_guard_counts_no_group_for_mixed_parity(monkeypatch, capsys):
    # past n = 2 some n + h_j of 0,1 is even, so hl_count sieves nothing and
    # the guard counts 0 groups; 0,2 still streams x + h_k integers
    code, out = run_cli(["hl-count", "--offsets", "0,1", "--x", "3e9", "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["actual"], row["predicted"], row["ratio"]) == (1, 0.0, None)

    def refuse(*args):
        raise AssertionError("work started past the guardrail")

    monkeypatch.setattr("primegaps.tuples.hl_count", refuse)
    code, out = run_cli(["hl-count", "--offsets", "0,2", "--x", "3e9"])
    assert code == 2 and out == ""
    assert_refused(capsys.readouterr().err, 3_000_000_002, MAX_SIEVE_SPAN)


def test_intervals_guard_counts_the_span_it_sieves(monkeypatch):
    # intervals sieves [x, 2x] and the base primes up to sqrt(2x), not 2x:
    # 1e9 + 1 (which 2x refused) and the last x within budget reach the sampler
    def refuse(*args):
        raise AssertionError("sampler reached")

    monkeypatch.setattr("primegaps.gaps.interval_count_distribution", refuse)
    for x in ("1000000001", "1999936755"):
        with pytest.raises(AssertionError, match="sampler reached"):
            main(["intervals", "--x", x, "--n-samples", "10"])


@pytest.mark.parametrize("argv", [
    ["ap-table", "--x", "5e9", "--q", "12"],
    ["bv-scan", "--x", "5e9", "--q-max", "20"],
    ["montgomery", "--x", "5e9", "--q-max", "20"],
], ids=["ap-table", "bv-scan", "montgomery"])
def test_force_stops_at_the_2_to_32_prime_table(argv, monkeypatch, capsys):
    # the patch keeps a broken refusal from sieving a table past 2^32
    def refuse(*args):
        raise AssertionError("sieved past the uint32 prime table")

    monkeypatch.setattr("primegaps.sieve.sieve_range", refuse)
    code, out = run_cli([*argv, "--force"])
    assert code == 2 and out == ""
    assert "2^32" in capsys.readouterr().err


def test_gpy_experiment_checks_level_before_building_weights(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("weights built before the level check")

    monkeypatch.setattr("primegaps.gpy.build_weights", refuse)
    argv = ["gpy-experiment", "--offsets", "0,2", "--x", "1e4", "--R", "200000"]
    assert main(argv) == 2
    assert "level-too-large" in capsys.readouterr().err


def test_gpy_experiment_bounds_degree_before_building_polynomial(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("polynomial or weights built before the degree check")

    monkeypatch.setattr("primegaps.polys.PolynomialSpec.power", refuse)
    monkeypatch.setattr("primegaps.gpy.build_weights", refuse)
    argv = ["gpy-experiment", "--offsets", "0,2", "--x", "1e4", "--r", "1e8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "degree k+r" in err
    assert_refused(err, 100000002, 1000)
    assert main(["gpy-experiment", "--offsets", "0", "--x", "1e4", "--r", "1000"]) == 2
    with pytest.raises(AssertionError, match="degree check"):   # --force reaches the build
        main([*argv, "--force"])


def test_gpy_experiment_bounds_profile_before_building_weights(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("weights built before the profile check")

    monkeypatch.setattr("primegaps.gpy.build_weights", refuse)
    # the profile has x + 1 entries
    argv = ["gpy-experiment", "--offsets", "0,2", "--x", "1e9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "weight profile entries" in err
    assert_refused(err, 1000000001, 250000000)
    assert main(["gpy-experiment", "--offsets", "0,2", "--x", "250000000"]) == 2
    # the largest x within budget, and --force, reach the (refusing) builder
    for accepted in (["gpy-experiment", "--offsets", "0,2", "--x", "249999999"],
                     [*argv, "--force"]):
        with pytest.raises(AssertionError, match="profile check"):
            main(accepted)


def test_gpy_experiment_bounds_series_level_before_building_weights(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("weights built before the level check")

    monkeypatch.setattr("primegaps.gpy.build_weights", refuse)
    # the asymptotics take S(H) at L = h_k = 1e10, so k*L = 2e10
    argv = ["gpy-experiment", "--offsets", "0,10000000000", "--x", "1e4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "k*L" in err
    assert_refused(err, 2 * 10**10, MAX_SIEVE_SPAN)
    with pytest.raises(AssertionError, match="level check"):
        main([*argv, "--force"])


def test_gpy_experiment_accepts_degree_at_budget():
    code, out = run_cli(["gpy-experiment", "--offsets", "0", "--x", "1e4", "--r", "999"])
    assert code == 0 and out.startswith("form,")


def test_inequality_scan_bounds_work_before_any_row(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("scan row built before the work check")

    monkeypatch.setattr("primegaps.polys.RationalPoly", refuse)
    monkeypatch.setattr("primegaps.polys.unfortunate_inequality", refuse)
    argv = ["inequality-scan", "--k-max", "1000", "--m-max", "300"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "scan work" in err
    assert_refused(err, 479520000, 1000000)
    # 999 rows of k + 2m = 1002, one past the budget
    assert main(["inequality-scan", "--k-max", "1000", "--m-max", "1"]) == 2
    with pytest.raises(AssertionError, match="work check"):
        main([*argv, "--force"])


def test_inequality_scan_accepts_readme_scan():
    code, out = run_cli(["inequality-scan", "--k-max", "20", "--m-max", "10"])
    assert code == 0 and len(out.splitlines()) == 1 + 19 * 10


def test_bv_scan_sensitivity_checks_doubled_grid_before_scanning(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("scanned before the doubled grid was checked")

    monkeypatch.setattr("primegaps.progressions.bv_scans", refuse)
    argv = ["bv-scan", "--x", "1000", "--q-max", "5", "--checkpoints", "40", "--sensitivity"]
    assert main(argv) == 2
    assert "--sensitivity" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--sensitivity"]], ids=["plain", "sensitivity"])
def test_bv_scan_bounds_checkpoints_before_building_grid(monkeypatch, capsys, extra):
    def refuse(*args):
        raise AssertionError("built the checkpoint grid before bounding it")

    monkeypatch.setattr("primegaps.progressions.bv_checkpoints", refuse)
    argv = ["bv-scan", "--x", "1000", "--q-max", "5", "--checkpoints", "10000000", *extra]
    assert main(argv) == 2
    assert "10000000 checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x_lo, p, gap",
    [(738832927000, 738832927927, 540), (1693182318746000, 1693182318746371, 1132)],
)
def test_gaps_window_finds_published_maximal_gap(x_lo, p, gap):
    # maximal-gap records (OEIS A002386 / A005250) at 7.4e11 and 1.7e15
    code, out = run_cli(["gaps", "--x-lo", str(x_lo), "--x-hi", str(x_lo + 1000),
                         "--format", "json"])
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["max_gap_at_p"] == p
    assert meta["max_gap_over_log_sq"] == float(f"{gap / math.log(p) ** 2:.12g}")


def test_gallagher_subset_cap_exits_2_before_any_work(monkeypatch, capsys):
    # k outside [1, h] passes the guard to the library's own checks
    for k, h, message in (("0", "5", "k must be at least 1"),
                          ("3", "2", "h must be at least k"),
                          ("-1", "5", "k must be at least 1")):
        assert main(["gallagher", "--k", k, "--h", h]) == 2
        assert message in capsys.readouterr().err

    def refuse(*args):
        raise AssertionError("subsets averaged past the guardrail")

    monkeypatch.setattr("primegaps.tuples.gallagher_average", refuse)
    # the kernel evaluates binomial(h - 1, k - 1) translates; the count stops
    # at binomial(4994, 2) = 12467521, a lower bound for binomial(4999, 7)
    argv = ["gallagher", "--k", "8", "--h", "5000", "--L", "10000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "binomial(4999, 7) translates, at least" in err
    assert_refused(err, 12467521, SUBSET_BUDGET)
    with pytest.raises(AssertionError, match="past the guardrail"):
        main([*argv, "--force"])
    # the cap sits between binomial(36, 7) = 8347680 and binomial(37, 7) = 10295472
    assert main(["gallagher", "--k", "8", "--h", "38"]) == 2
    err = capsys.readouterr().err
    assert "binomial(37, 7) translates 10295472" in err
    assert_refused(err, 10295472, SUBSET_BUDGET)
    # 4999 translates of k = 2 run in well under a second
    for accepted in (["--k", "8", "--h", "37"], ["--k", "2", "--h", "5000"]):
        with pytest.raises(AssertionError, match="past the guardrail"):
            main(["gallagher", *accepted])


def test_hl_count_checks_L_before_sieving(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("indicator sieved before the L check")

    monkeypatch.setattr("primegaps.tuples.iter_windows", refuse)
    assert main(["hl-count", "--offsets", "0,2", "--x", "1e8", "--L", "3"]) == 2
    assert "L-too-small" in capsys.readouterr().err


# Sizes of many sieve windows (2^21) on both sides, where a whole array of
# the old code grew by more than 20 MB from x to 2x: the indicator of
# hl-count (x bytes) and intervals (2x bytes), cramer's n_max + 1 bools and
# their positions, and the int64 primes below x that gaps held.
@pytest.mark.parametrize("argv, x", [
    (["gaps", "--x-hi"], 40_000_000),
    (["hl-count", "--offsets", "0,2", "--x"], 40_000_000),
    (["intervals", "--n-samples", "1000", "--x"], 20_000_000),
    (["cramer", "--n-max"], 25_000_000),
], ids=["gaps", "hl-count", "intervals", "cramer"])
def test_streamed_peak_is_flat_in_x(argv, x):
    small, large = (peak_rss_kib(*argv, str(size)) for size in (x, 2 * x))
    assert abs(large - small) < 8 * 1024, (small, large)


@pytest.mark.parametrize("argv, x", [
    (["gaps", "--x-hi"], "4e7"),
    (["hl-count", "--offsets", "0,2", "--x"], "4e7"),
    (["intervals", "--n-samples", "1000", "--x"], "2e7"),
], ids=["gaps", "hl-count", "intervals"])
def test_streamed_peak_is_one_window_over_that_at_1e5(argv, x):
    # one 2^21-integer window (1 MiB of odd flags) and its temporaries fit
    # in 4 MiB over the same command at 1e5, whose base primes and window
    # are negligible; 2^24-integer windows (8 MiB of flags) put these
    # peaks 10 to 16 MB higher
    base, peak = (peak_rss_kib(*argv, size) for size in ("1e5", x))
    assert peak - base < 4 * 1024, (base, peak)


def test_hl_count_peak_is_flat_in_h_k():
    # offsets past half a window apart stream as two groups of 1 MiB
    # windows, one window alive at a time, whatever h_k; one buffer joining
    # windows across h_k grew from 47 to 85 MB between these two
    near, far = (peak_rss_kib("hl-count", "--offsets", f"0,{h}", "--x", "1e7")
                 for h in ("20000000", "100000000"))
    assert abs(far - near) < 4 * 1024, (near, far)


def test_gaps_peak_far_out_is_its_base_primes_and_one_window():
    # at 1e15 the stream holds the 1.95 million base primes below
    # sqrt(x_hi), 4 bytes each in the table and 8 in the carried strikes,
    # beside one window and its strike temporaries (measured 31.5 MB over
    # gaps at 1e5); first strikes recomputed for every window of the whole
    # base put the peak 72 MB over it
    base_primes = 1_951_957  # pi(sqrt(1e15 + 1e6))
    base = peak_rss_kib("gaps", "--x-hi", "1e5")
    peak = peak_rss_kib("gaps", "--x-lo", "1e15", "--x-hi", "1000000001000000", "--force")
    bound_kib = 12 * base_primes / 1024 + 16 * 1024
    assert peak - base < bound_kib, (base, peak, bound_kib)


def test_ap_table_peak_grows_by_its_primes_alone():
    # ap-table reads the cached uint32 table primes_upto(x), which grows by
    # 4 bytes a prime from x to 2x (8.5 MB here); the table is filled in one
    # buffer one 2^21-integer window (1 MiB of odd flags) at a time and
    # reduced mod q a block at a time, so no second table-sized array (an
    # int64 copy, the residues, a window's primes) adds to that
    x = 40_000_000
    small, large = (peak_rss_kib("ap-table", "--q", "30", "--x", str(size)) for size in (x, 2 * x))
    added_kib = (4_669_382 - 2_433_654) * 4 / 1024  # pi(8e7) - pi(4e7) primes
    assert large - small < added_kib + 8 * 1024, (small, large, added_kib)


def test_ap_table_peak_is_its_table_and_one_cache_block():
    # over a run whose table is negligible, the peak at 4e7 adds its table
    # (4 bytes a prime, 9.3 MiB) and one 1 MiB window of odd flags with its
    # fill temporaries, under 4 MiB together; a 2^24-integer window (8 MiB
    # of flags) beside the table brought the sum to about 17.5 MiB
    base, peak = (peak_rss_kib("ap-table", "--q", "30", "--x", x) for x in ("1e5", "4e7"))
    bound_kib = 4 * 2_433_654 / 1024 + 4 * 1024  # pi(4e7) primes, plus 4 MiB
    assert peak - base < bound_kib, (base, peak, bound_kib)


def test_intervals_peak_grows_by_its_sorted_starts_alone():
    # intervals holds its drawn starts as one sorted int64 array and counts
    # them a block at a time against each window's primes, so from 1e5 to
    # 4e6 samples the peak grows by about 8 bytes a sample (about 31 MB here),
    # well under 12; a per-sample count array and its gathers beside the
    # starts raised that to about 25
    small, large = (peak_rss_kib("intervals", "--x", "1000", "--n-samples", str(n))
                    for n in (100_000, 4_000_000))
    added_kib = 12 * (4_000_000 - 100_000) / 1024
    assert large - small < added_kib, (small, large, added_kib)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_montgomery_peak_is_that_of_its_table(threads):
    # both commands hold the table primes_upto(4e7) (9.7 MB); montgomery
    # reduces it a block of primes at a time, in this process or in forked
    # workers, so its residues add no table-sized array
    table = peak_rss_kib("ap-table", "--q", "20", "--x", "4e7", "--threads", threads)
    scan = peak_rss_kib("montgomery", "--q-max", "20", "--x", "4e7", "--threads", threads)
    assert abs(scan - table) < 8 * 1024, (table, scan)


def test_tuple_peak_is_flat_in_L():
    # the series kernel sieves its primes <= L one 2^21-integer window at a
    # time, where the uint32 table primes_upto(L) alone grew by 13 MiB from
    # 2e7 to 8e7 and its float factor columns by several times that
    small, large = (peak_rss_kib("tuple", "--offsets", "0,2", "--L", L) for L in ("2e7", "8e7"))
    assert abs(large - small) < 4 * 1024, (small, large)


def test_gallagher_peak_is_near_that_of_one_tuple():
    # 4851 translates of {0, a, b} in blocks of 1024 fold their factors in
    # 512 KiB chunks; one 2^21-cell (16 MiB) factor matrix per block put
    # about 9.7 MiB above a single tuple
    one = peak_rss_kib("tuple", "--offsets", "0,2")
    many = peak_rss_kib("gallagher", "--k", "3", "--h", "100")
    assert many - one < 5 * 1024, (one, many)


def test_wide_tuple_peak_is_bounded():
    # a span of 2e7 gives every prime <= L = 2e7 residue work, a chunk of
    # primes at a time; the whole residue array and factor matrix took the
    # peak to about 123 MiB
    peak = peak_rss_kib("tuple", "--offsets", "0,20000000")
    assert peak < 50 * 1024, peak


def test_overflow_exits_1(capsys):
    code = main(["longgap", "--kind", "factorial", "--m", "25"])
    assert code == 1


def test_singular_series_past_float64_exits_1_without_output():
    # the first 400 primes above 400, shifted to start at 0: an admissible
    # tuple whose singular series is beyond the float64 range
    from primegaps.sieve import primes_between

    ps = primes_between(401, 5000)[:400]
    proc = run_cli_process(["tuple", "--offsets", ",".join(map(str, ps - ps[0]))])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("primegaps: runtime failure: singular series")
    assert "RuntimeWarning" not in proc.stderr


def test_hl_count_prediction_past_float64_exits_1_without_output():
    # the first 300 primes above 300, shifted to start at 0: S(H) is finite,
    # but (log 1e6)^300 is beyond the float64 range
    from primegaps.sieve import primes_between

    ps = primes_between(301, 5000)[:300]
    offsets = ",".join(map(str, ps - ps[0]))
    proc = run_cli_process(["hl-count", "--offsets", offsets, "--x", "1e6"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "primegaps: runtime failure: Hardy-Littlewood prediction of 300 offsets")


def test_unwritable_out_exits_1_without_temporary_file(tmp_path, monkeypatch, capsys):
    # a missing directory fails before the temporary file exists, an
    # existing directory as the target only when it is renamed into place;
    # either way the message names the path asked for, a relative one as
    # resolved, not the temporary file beside it
    (tmp_path / "taken").mkdir()
    monkeypatch.setenv("PRIMEGAPS_OUTDIR", str(tmp_path))
    for out, named in ((str(tmp_path / "missing" / "run.csv"), tmp_path / "missing" / "run.csv"),
                       (str(tmp_path / "taken"), tmp_path / "taken"),
                       ("taken", tmp_path / "taken")):
        code, stdout = run_cli(["longgap", "--kind", "factorial", "--m", "5", "--out", out])
        assert code == 1
        assert stdout == ""
        err = capsys.readouterr().err
        assert err.startswith("primegaps: runtime failure: ")
        assert err.endswith(f": {str(named)!r}\n"), err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_errors_module_defines_one_exception_class():
    from primegaps import errors

    classes = [v for v in vars(errors).values() if isinstance(v, type)]
    assert classes == [errors.PreconditionError]


def test_write_and_rerun_byte_identical(tmp_path):
    path = tmp_path / "out.json"
    argv = ["bv-scan", "--x", "2000", "--q-max", "10", "--checkpoints", "8",
            "--format", "json", "--out", str(path)]
    assert main(argv) == 0
    first = path.read_bytes()
    assert main(argv) == 0
    assert path.read_bytes() == first
    assert not any(p.name.startswith(".primegaps-") for p in tmp_path.iterdir())


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEGAPS_OUTDIR", str(tmp_path))
    assert main(["longgap", "--kind", "factorial", "--m", "5", "--out", "run.csv"]) == 0
    assert (tmp_path / "run.csv").exists()


def test_scientific_notation_x():
    assert parse_exact_int("1e3") == 1000
    assert parse_exact_int("2.5e3") == 2500
    assert parse_exact_int("1e8") == 100_000_000


def test_scientific_notation_rejects_fractions():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_exact_int("1.5")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_exact_int("abc")
    for text in ("inf", "Infinity", "-inf", "nan", "snan"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_exact_int(text)
    # through the parser, a non-finite integer exits 2 without a traceback
    assert run_cli(["gaps", "--x-hi=-inf"])[0] == 2


def test_integers_refused_past_64_bits():
    import argparse

    for text in ("18446744073709551615", "-18446744073709551615", "1e19", "1.8e19"):
        assert abs(parse_exact_int(text)) < 2**64
    for text in ("18446744073709551616", "-18446744073709551616", "1.8446744073709551616e19",
                 "1e20", "-1e20", "1e2000000", "9" * 5000):
        with pytest.raises(argparse.ArgumentTypeError, match="beyond 64 bits"):
            parse_exact_int(text)


@pytest.mark.parametrize("argv", [
    ["gaps", "--x-hi", "1e5000"],
    ["cramer", "--n-max", "1e5000"],
    ["cramer", "--n-max", "10", "--seed", "1e20"],
    ["longgap", "--kind", "factorial", "--m", "1e5000"],
    ["gallagher", "--k", "1e2200", "--h", "1e2200", "--L", "1e2200"],
], ids=["gaps", "cramer", "seed", "longgap", "gallagher"])
def test_oversized_integer_exits_2_when_parsed(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "beyond 64 bits" in err
    assert "Traceback" not in err


def test_huge_exponent_exits_2_at_once_from_a_fresh_process():
    proc = run_cli_process(["gaps", "--x-hi", "1e2000000"], timeout=30)
    assert proc.returncode == 2
    assert "beyond 64 bits" in proc.stderr


def test_gpy_ratio_refuses_r_with_coeffs(capsys):
    # an explicit --r 0, the closed form's default, conflicts too
    for r in ("1", "0"):
        code, out = run_cli(["gpy-ratio", "--k", "7", "--r", r, "--theta", "0.5",
                             "--coeffs", "0,0,0,0,0,0,0,0,1"])
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in capsys.readouterr().err
    # without --r the closed form still records r = 0
    code, out = run_cli(["gpy-ratio", "--k", "7", "--theta", "0.5", "--format", "json"])
    assert json.loads(out)["meta"]["parameters"]["r"] == 0


def test_json_meta_records_seed_used():
    code, out = run_cli(["cramer", "--n-max", "1000", "--seed", "77", "--format", "json"])
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 77
    code, out = run_cli(["cramer", "--n-max", "1000", "--format", "json"])
    assert json.loads(out)["meta"]["seed"] == 0


@pytest.mark.parametrize("argv, handler", [
    (["cramer", "--n-max", "1000", "--seed", "-1"], "cramer_simulate"),
    (["intervals", "--x", "1000", "--n-samples", "10", "--seed", "-5"],
     "interval_count_distribution"),
], ids=["cramer", "intervals"])
def test_negative_seed_exits_2_before_any_work(argv, handler, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(f"primegaps.gaps.{handler}", refuse)
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "seed must be nonnegative" in err
    assert "Traceback" not in err


def test_emit_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit(["a", "b", "c"], [], {"subcommand": "x"}, "csv", str(path))
    assert path.read_text() == "a,b,c\n"


def test_emit_quotes_embedded_commas(tmp_path):
    path = tmp_path / "q.csv"
    emit(["offsets", "n"], [{"offsets": "0,2,4", "n": 1}], {}, "csv", str(path))
    assert path.read_text().splitlines()[1] == '"0,2,4",1'


def test_emit_real_formatting():
    buf = io.StringIO()
    render(["v"], [{"v": 0.6321205588285577}], {}, "csv", buf)
    assert buf.getvalue() == "v\n0.632120558829\n"


def whole_string_rendering(columns, rows, meta, fmt: str) -> str:
    """The output as one string, built the way render built it before it
    streamed: the referee of the streamed bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(fmt_value(row.get(c)) for c in columns)
        return buf.getvalue()
    payload = {"meta": _json_clean(meta), "rows": _json_clean(rows)}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_output_equals_whole_string(fmt, tmp_path):
    columns = ["offsets", "value", "flag", "n"]
    rows = [
        {"offsets": "0,2,6", "value": math.nan, "flag": True, "n": 0},
        {"offsets": 'say "0, 2"', "value": math.inf, "flag": False, "n": 2**70},
        {"offsets": "", "value": -math.inf, "flag": None, "n": -1},
        {"offsets": "0", "value": 0.6321205588285577, "n": 3},  # "flag" missing
        {"offsets": "0,2", "value": 1e-300, "flag": True, "n": None},
    ]
    meta = {"subcommand": "x", "nan": math.nan, "list": [math.inf, 1 / 3, None, (2, 0.1)],
            "nested": {"neg": -math.inf, "ok": False}}
    expected = whole_string_rendering(columns, rows, meta, fmt)
    buf = io.StringIO()
    render(columns, copy.deepcopy(rows), meta, fmt, buf)
    assert buf.getvalue() == expected
    path = tmp_path / f"out.{fmt}"
    emit(columns, copy.deepcopy(rows), meta, fmt, str(path))
    assert path.read_bytes() == expected.encode()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        emit(columns, copy.deepcopy(rows), meta, fmt, None)
    assert stdout.getvalue() == expected


RENDER_PEAK_DRIVER = """
import json, os, resource
from primegaps.cli import render
columns = ["q", "max_abs_error", "checkpoint_argmax_y"]
rows = [{"q": q, "max_abs_error": q / 7, "checkpoint_argmax_y": q * 1.5} for q in range(20_000)]
meta = {"subcommand": "synthetic", "total": 1.5}
with open(os.devnull, "w") as out:
    render(columns, rows[:10], meta, "json", out)
size = len(json.dumps({"meta": meta, "rows": rows}, indent=2)) + 1
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(os.devnull, "w") as out:
    render(columns, rows, meta, "json", out)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, size)
"""


def test_json_render_holds_less_than_its_output():
    # the whole-string render held about 7-10 times the output; the stream
    # holds a token at a time, and each row's cleaned copy in place of it
    proc = subprocess.run([sys.executable, "-c", RENDER_PEAK_DRIVER], capture_output=True,
                          text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth_kib, size = map(int, proc.stdout.split())
    assert size > 2_000_000
    assert growth_kib * 1024 < size


def test_out_leaves_no_file_when_rendering_fails(tmp_path):
    # the meta and the first row are written before the second row fails
    with pytest.raises(TypeError):
        emit(["v"], [{"v": 1}, {"v": object()}], {}, "json", str(tmp_path / "t.json"))
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_subprocess():
    proc = run_cli_process(["gpy-ratio", "--k", "7", "--r", "1", "--theta", "0.5"])
    assert proc.returncode == 0
    assert "0.15" in proc.stdout
