"""What each entry point imports: every check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import primegaps

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = {
    "CramerConfig", "OffsetTuple", "PolynomialSpec", "RationalPoly", "build_weights",
    "cramer_simulate", "exact_double_count", "gallagher_average", "gap_histogram",
    "gpy_ratio", "gpy_ratio_general", "mobius_log_identity", "pi_ap", "prime_count",
    "sieve_range", "singular_series", "unfortunate_inequality",
}


def loaded_after(code: str, blocked=()) -> set:
    """Names of the numpy, mpmath and multiprocessing modules a fresh
    interpreter holds after code, run with each module named in blocked made
    unimportable first."""
    block = "".join(f"sys.modules[{name!r}] = None\n" for name in blocked)
    probe = (f"import sys\n{block}{code}\n"
             "print(*{'numpy', 'mpmath', 'multiprocessing'}"
             " & {n for n, m in sys.modules.items() if m is not None})")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def after_commands(*argvs, blocked=()) -> set:
    """loaded_after running each CLI argument list in one process, output discarded."""
    runs = "\n".join(
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
        for argv in argvs
    )
    return loaded_after(f"import contextlib, io\nfrom primegaps.cli import main\n{runs}", blocked)


def test_package_and_cli_import_neither_numpy_nor_mpmath():
    assert loaded_after("import primegaps") == set()
    assert loaded_after("import primegaps.cli") == set()


def test_exact_rational_commands_run_without_numpy():
    assert after_commands(
        ["gpy-ratio", "--k", "7", "--r", "1", "--theta", "0.5"],
        ["gpy-ratio", "--k", "2", "--theta", "0.25", "--coeffs", "0,0,0.5,0.5"],
        ["inequality-scan", "--k-max", "6", "--m-max", "3"],
    ) == set()


def test_sieve_tuple_and_gpy_commands_run_without_mpmath():
    assert after_commands(
        ["gaps", "--x-hi", "1e4"],
        ["tuple", "--offsets", "0,2,6"],
        ["gallagher", "--k", "2", "--h", "20"],
        ["gpy-experiment", "--offsets", "0,2", "--x", "1e4"],
    ) == {"numpy"}


@pytest.mark.parametrize("argv", [
    ["ap-table", "--x", "1000", "--q", "7"],
    ["bv-scan", "--x", "1000", "--q-max", "5", "--checkpoints", "8"],
    ["montgomery", "--x", "1000", "--q-max", "5"],
], ids=lambda argv: argv[0])
def test_progression_commands_load_numpy_alone(argv):
    # at two threads the scans fork their workers, with no multiprocessing
    argv = [*argv, "--threads", "2"]
    assert after_commands(argv) == {"numpy"}
    assert after_commands(argv, blocked=["mpmath", "multiprocessing"]) == {"numpy"}


def test_package_exports_exactly_the_documented_names():
    assert set(primegaps.__all__) == EXPORTS and len(primegaps.__all__) == len(EXPORTS)
    assert sorted(dir(primegaps)) == sorted(EXPORTS)
    for name in EXPORTS:
        obj = getattr(primegaps, name)
        # resolved from the module that defines it, not a second copy
        assert obj.__module__ == f"primegaps.{primegaps._OWNERS[name]}"
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert primegaps.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        primegaps.no_such_name
    assert not hasattr(primegaps, "InequalityCheck")


def test_star_import_and_readme_example_run():
    namespace = {}
    exec("from primegaps import *", namespace)
    assert EXPORTS <= set(namespace)
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert loaded_after(example) == {"numpy"}
