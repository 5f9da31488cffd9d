"""Shared oracles and the regression-baseline store.

Baselines: quantities with no hard tolerance (slow-converging ratios,
Monte Carlo outputs under a fixed seed) are recorded in _baselines.json on
first run and compared against on every later run, so silent numerical
drift fails loudly.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import primegaps

_BASELINE_PATH = pathlib.Path(__file__).with_name("_baselines.json")


class BaselineStore:
    def __init__(self, path: pathlib.Path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.dirty = False

    def check(self, name: str, value, rel_tol: float = 1e-9) -> None:
        """Record value on first sight; afterwards require agreement."""
        if name not in self.data:
            self.data[name] = value
            self.dirty = True
            return
        stored = self.data[name]
        if isinstance(value, float) or isinstance(stored, float):
            assert value == pytest.approx(stored, rel=rel_tol, abs=1e-300), (
                f"baseline {name!r} drifted: stored {stored!r}, got {value!r}"
            )
        else:
            assert value == stored, (
                f"baseline {name!r} drifted: stored {stored!r}, got {value!r}"
            )

    def flush(self) -> None:
        if self.dirty:
            self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
            self.dirty = False


@pytest.fixture(scope="session")
def baseline():
    store = BaselineStore(_BASELINE_PATH)
    yield store
    store.flush()


# ---------------------------------------------------------------------------
# independent oracles (deliberately naive; never share code with the package)

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_division_primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if trial_division_is_prime(n)]


def naive_sieve_flags(limit: int) -> bytearray:
    """Unsegmented pure-Python sieve: flags[n] is 1 iff n <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return flags


def naive_sieve_count(limit: int) -> int:
    """Counts primes <= limit with the unsegmented sieve."""
    return sum(naive_sieve_flags(limit))


def naive_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def simpson_log_integral(x: float, n_panels: int) -> float:
    """Fixed-step composite Simpson for the integral of 1/log t over [2, x].

    Uses the substitution u = log t (so the integrand e^u / u is smooth on
    the whole panel range); the raw integrand's curvature near t = 2 would
    otherwise dominate the error.
    """
    if x == 2:
        return 0.0
    lo, hi = math.log(2.0), math.log(x)
    h = (hi - lo) / (2 * n_panels)

    def f(u: float) -> float:
        return math.exp(u) / u

    total = f(lo) + f(hi)
    for i in range(1, 2 * n_panels):
        total += (4.0 if i % 2 else 2.0) * f(lo + i * h)
    return total * h / 3.0


# ---------------------------------------------------------------------------
# the sieve window, patched

@pytest.fixture
def sieve_window(monkeypatch):
    """Set the sieve's window to a given size for one test, from an empty
    prime table: the table is then built in windows of that size too,
    whatever ran before, so a test gives the same result alone as in the
    full suite."""
    import numpy as np
    from primegaps import sieve

    def patch(size: int) -> None:
        monkeypatch.setattr(sieve, "SEGMENT_SIZE", size)
        monkeypatch.setattr(sieve, "_base", np.empty(0, dtype=np.uint32))
        monkeypatch.setattr(sieve, "_base_limit", 0)
        sieve._clear_views()

    yield patch
    sieve._clear_views()  # no cached view of the patched table outlives the test


# ---------------------------------------------------------------------------
# the forked workers of the progression scans

@pytest.fixture
def two_recorded_cores(monkeypatch):
    """Two cores, and the pid of every child forked since, in order; each
    fork is real."""
    forked = []
    fork = os.fork

    def recording_fork():
        forked.append(fork())
        return forked[-1]

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_no_child():
    """This process has no child, running or unreaped (plain forks are
    invisible to multiprocessing.active_children)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# peak memory of one CLI command in a fresh process

# A child's ru_maxrss starts at the high-water mark of the process that
# spawned it (vfork, then exec), so a small stdlib driver spawns each
# command, away from what this test process has held.
PEAK_DRIVER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "primegaps.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
assert status == 0, status
print(usage.ru_maxrss)
"""


def package_env() -> dict:
    """The environment of a child process that imports this copy of the package."""
    package_root = os.path.dirname(os.path.dirname(primegaps.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def peak_rss_kib(*argv):
    """Peak RSS in KiB of `primegaps *argv` run from this copy of the package."""
    proc = subprocess.run([sys.executable, "-c", PEAK_DRIVER, *argv], capture_output=True,
                          text=True, env=package_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)
