import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import primegaps
from primegaps import progressions
from primegaps.cli import MAX_BV_MODULI, build_parser, emit, main, parse_exact_int

ALL_SUBCOMMANDS = [
    "gaps", "intervals", "cramer", "longgap", "tuple", "hl-count", "gallagher",
    "gpy-ratio", "gpy-experiment", "inequality-scan", "ap-table", "bv-scan",
    "montgomery",
]

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


def test_every_subcommand_has_help():
    for cmd in ALL_SUBCOMMANDS:
        code, out = run_cli([cmd, "--help"])
        assert code == 0
        for flag in ("--out", "--format", "--threads", "--force"):
            assert flag in out, (cmd, flag)


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


def test_output_independent_of_threads():
    for cmd in ("gaps", "cramer", "bv-scan"):
        base = [cmd, *FAST_ARGS[cmd]]
        _, out1 = run_cli(base + ["--threads", "1"])
        _, out4 = run_cli(base + ["--threads", "4"])
        assert out1 == out4


def test_gpy_ratio_headline():
    code, out = run_cli(["gpy-ratio", "--k", "7", "--r", "1", "--theta", "0.5"])
    assert code == 0
    assert "0.15" in out


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
    ):
        assert main([*argv, "--out", str(out_file)]) == 2
        assert not out_file.exists()
        assert message in capsys.readouterr().err


def test_guardrail_refuses_oversized_without_force(capsys):
    code = main(["gaps", "--x-hi", "100000000000"])
    assert code == 2
    assert "--force" in capsys.readouterr().err
    # the gaps budget bounds the window plus the base primes, not x_hi
    assert main(["gaps", "--x-lo", "1e12", "--x-hi", "1000000100000"]) == 0
    capsys.readouterr()
    assert main(["gaps", "--x-lo", "4e18", "--x-hi", "4000000000000000100"]) == 2
    assert "--force" in capsys.readouterr().err
    # one modulus past the cap is refused before any table is allocated
    q = str(MAX_BV_MODULI + 1)
    for argv in (["ap-table", "--x", "1000", "--q", q],
                 ["montgomery", "--x", "200000", "--q-min", q]):
        assert main(argv) == 2
        assert "--force" in capsys.readouterr().err
    # the singular-series level L is bounded through k*L, default or given
    for argv in (["tuple", "--offsets", "0,1,10000000000"],
                 ["tuple", "--offsets", "0,1", "--L", "1e10"],
                 ["hl-count", "--offsets", "0,1", "--x", "1000", "--L", "1e10"],
                 ["gallagher", "--k", "2", "--h", "2", "--L", "1e10"]):
        assert main(argv) == 2
        assert "--force" in capsys.readouterr().err


def test_gpy_experiment_checks_level_before_building_weights(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("weights built before the level check")

    monkeypatch.setattr("primegaps.cli.build_weights", refuse)
    argv = ["gpy-experiment", "--offsets", "0,2", "--x", "1e4", "--R", "200000"]
    assert main(argv) == 2
    assert "level-too-large" in capsys.readouterr().err


def test_bv_scan_sensitivity_checks_doubled_grid_before_scanning(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("scanned before the doubled grid was checked")

    monkeypatch.setattr("primegaps.cli.bv_scan", refuse)
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


def test_budget_error_exits_1(capsys):
    # without --force the CLI hands its subset budget to the library, whose
    # refusal is a runtime failure: exit 1
    code = main(["gallagher", "--k", "8", "--h", "5000", "--L", "10000"])
    assert code == 1
    assert "budget" in capsys.readouterr().err.lower()


def test_overflow_exits_1(capsys):
    code = main(["longgap", "--kind", "factorial", "--m", "25"])
    assert code == 1


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


def test_json_meta_records_seed_used():
    code, out = run_cli(["cramer", "--n-max", "1000", "--seed", "77", "--format", "json"])
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 77
    code, out = run_cli(["cramer", "--n-max", "1000", "--format", "json"])
    assert json.loads(out)["meta"]["seed"] == 0


def test_emit_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit(["a", "b", "c"], [], {"subcommand": "x"}, "csv", str(path))
    assert path.read_text() == "a,b,c\n"


def test_emit_quotes_embedded_commas(tmp_path):
    path = tmp_path / "q.csv"
    emit(["offsets", "n"], [{"offsets": "0,2,4", "n": 1}], {}, "csv", str(path))
    assert path.read_text().splitlines()[1] == '"0,2,4",1'


def test_emit_real_formatting():
    buf_cols = ["v"]
    rows = [{"v": 0.6321205588285577}]
    from primegaps.cli import render

    text = render(buf_cols, rows, {}, "csv")
    assert text == "v\n0.632120558829\n"


def test_console_entry_point_subprocess():
    # the child imports the same copy of the package as this process
    package_root = os.path.dirname(os.path.dirname(primegaps.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "primegaps.cli", "gpy-ratio", "--k", "7", "--r", "1",
         "--theta", "0.5"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "0.15" in proc.stdout
