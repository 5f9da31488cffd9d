"""Benchmark of the primegaps CLI: closed-loop sessions of real commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from its
`src/`.  One client issues the commands of a session (workloads.py) one
after another, each a fresh `python -m primegaps.cli` process, and starts
the next only when the previous one has exited.  Wall time and peak RSS of
each child come from os.wait4, and every output is checked.

--trace 0 measures the end-to-end metrics: sessions are repeated while the
next one still fits in S seconds, and the medians over sessions are
reported, with the median cold-start time of `import primegaps.cli`.
--trace 1 runs each session twice, plainly and through shim.py, checks that
the output bytes agree, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give each command's figures and the machine.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402
from shim import LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"
COMMAND_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The checkout cannot run the program at all."""


@dataclass
class Result:
    """One finished command."""

    command: workloads.Command
    wall_s: float
    rss_mb: float
    cpu_s: float
    out: bytes
    error: str | None
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PRIMEGAPS_OUTDIR", None)
    return env


def spawn(argv: list[str], stem: Path):
    """Run argv to completion; return (wall s, rusage, exit code, stdout bytes)."""
    with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return wall, usage, proc.returncode, stem.with_suffix(".out").read_bytes()


def check(command: workloads.Command, code: int, out: bytes, digests: dict) -> str | None:
    """Why the output is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    recorded = digests.get(" ".join(command.argv))
    if recorded is not None and hashlib.sha256(out).hexdigest() != recorded:
        return "output bytes differ from the digest recorded for these arguments"
    try:
        command.check(json.loads(out))
    except (workloads.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"check failed: {exc!r}"
    return None


def run_session(commands, workdir: Path, digests: dict, traced: bool, setup=None) -> list[Result]:
    """Run the commands one after another; with a `setup` list, time one
    cold start after each command into it."""
    results = []
    for i, command in enumerate(commands):
        stem = workdir / f"{i}-{command.subcommand}{'-traced' if traced else ''}"
        if traced:
            trace_path = stem.with_suffix(".trace.json")
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "shim.py"), str(trace_path), *command.argv]
        else:
            argv = [sys.executable, "-m", "primegaps.cli", *command.argv]
        wall, usage, code, out = spawn(argv, stem)
        error = check(command, code, out, digests)
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        if traced and trace is None and error is None:
            error = "no trace written"
        results.append(Result(command, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
                              out, error, trace))
        print(f"#   {wall:8.3f} s {usage.ru_maxrss / 1024:8.1f} MB  {' '.join(command.args)}"
              + (f"  FAILED: {error}" if error else ""), flush=True)
        if setup is not None:
            setup.append(cold_start_s())
    return results


def cold_start_s() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    start = time.perf_counter()
    code = subprocess.call([sys.executable, "-c", "import primegaps.cli"], env=child_env(), cwd=ROOT)
    wall = time.perf_counter() - start
    if code != 0:
        raise SetupError(f"import primegaps.cli exited {code}")
    return wall


def machine_facts() -> dict:
    """Facts about this machine; also the untimed first import that writes bytecode."""
    probe = ("import sys, numpy, primegaps, primegaps.cli; "
             "print(numpy.__version__); print(primegaps.__file__)")
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SetupError(f"cannot import primegaps from {ROOT / 'src'}:\n{proc.stderr}")
    numpy_version, package_file = proc.stdout.splitlines()
    if not Path(package_file).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"primegaps was imported from {package_file}, not from {ROOT / 'src'}")
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}
    for path, key, label in (("/proc/meminfo", "MemAvailable", "mem_available"),
                             ("/proc/cpuinfo", "model name", "cpu")):
        try:
            with open(path, encoding="utf-8") as fh:
                facts[label] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith(key)), None)
        except OSError:
            facts[label] = None
    return facts


def repeat(seconds: int, one) -> list:
    """Run one() while the next run still fits in `seconds`; at least once."""
    runs, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(one())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return runs


def end_to_end(commands, workdir, digests, seconds):
    setup = []
    sessions = repeat(seconds, lambda: run_session(commands, workdir, digests, False, setup))
    results = [r for s in sessions for r in s]
    failed = sum(r.error is not None for r in results)
    print(f"# {len(sessions)} sessions of {len(commands)} commands; setup over {len(setup)} imports")
    print("# setup " + " ".join(f"{s:.3f}" for s in setup))
    metrics = {
        "wall_s": (sum(statistics.median(s[i].wall_s for s in sessions) for i in range(len(commands))), "s"),
        "peak_rss_mb": (statistics.median(max(r.rss_mb for r in s) for s in sessions), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ratio": (1 - failed / len(results), "ratio"),
    }
    return metrics, results


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(plain: list[Result], traced: list[Result]) -> dict:
    """Per-layer metrics of one traced session, with cli figures of the plain one."""
    self_s, calls, counters, inclusive = defaultdict(float), defaultdict(int), defaultdict(int), defaultdict(float)
    caches = defaultdict(lambda: [0, 0])
    for r in traced:
        trace = r.trace or {}
        for table, into in (("self_s", self_s), ("calls", calls), ("counters", counters),
                            ("inclusive_s", inclusive)):
            for name, value in trace.get(table, {}).items():
                into[name] += value
        for name, (hits, misses) in trace.get("caches", {}).items():
            caches[name][0] += hits
            caches[name][1] += misses

    def hit_ratio(name):
        hits, misses = caches[name]
        return (_ratio(hits, hits + misses), "ratio")

    m = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    m.update({
        "sieve.segments": (calls["sieve.sieve_range"], "count"),
        "sieve.ints_sieved": (counters["sieve.ints_sieved"], "count"),
        "sieve.ints_per_s": (_ratio(counters["sieve.ints_sieved"], inclusive["sieve.sieve_range"]), "1/s"),
        "sieve.resieve_ratio": (_ratio(counters["sieve.ints_sieved"], counters["sieve.ints_distinct"]), "ratio"),
        "sieve.primes_upto.hit_ratio": hit_ratio("sieve.primes_upto"),
        "sieve.factorize_calls": (calls["sieve.factorize"], "count"),
        "gaps.items": (counters["gaps.items"], "count"),
        "gpy.weights": (counters["gpy.weights"], "count"),
        "gpy.pair_terms": (calls["gpy.f_of"] + calls["gpy.g_of"], "count"),
        "gpy.profile_ints": (counters["gpy.profile_ints"], "count"),
        "tuples.singular_series_calls": (calls["tuples.singular_series"], "count"),
        "tuples.nu.hit_ratio": hit_ratio("tuples.nu"),
        "polys.calls": (sum(n for name, n in calls.items() if name.startswith("polys.")), "count"),
        "progressions.moduli": (counters["progressions.moduli"], "count"),
        "progressions.residue_ops": (counters["progressions.residue_ops"], "count"),
        "progressions.li.hit_ratio": hit_ratio("progressions.li"),
        "progressions.euler_phi_calls": (calls["progressions.euler_phi"], "count"),
        "cli.cpu_s": (sum(r.cpu_s for r in plain), "s"),
        "cli.out_bytes": (sum(len(r.out) for r in plain), "bytes"),
        "trace.overhead_ratio": (_ratio(sum(r.wall_s for r in traced), sum(r.wall_s for r in plain)), "ratio"),
    })
    return m


def print_per_subcommand(plain: list[Result]) -> None:
    """cli.<subcommand>.wall_s (summed) and .rss_mb (largest) of a plain session."""
    wall, rss = defaultdict(float), defaultdict(float)
    for r in plain:
        wall[r.command.subcommand] += r.wall_s
        rss[r.command.subcommand] = max(rss[r.command.subcommand], r.rss_mb)
    for sub in wall:
        print(f"cli.{sub}.wall_s {wall[sub]:.6g} s")
        print(f"cli.{sub}.rss_mb {rss[sub]:.6g} MB")


def per_layer(commands, workdir, digests, seconds):
    def pair():
        plain = run_session(commands, workdir, digests, traced=False)
        traced = run_session(commands, workdir, digests, traced=True)
        for p, t in zip(plain, traced):
            if t.error is None and t.out != p.out:
                t.error = "output bytes differ with tracing on"
        return plain, traced

    pairs = repeat(seconds, pair)
    results = [r for plain, traced in pairs for r in plain + traced]
    per_pair = [layer_metrics(plain, traced) for plain, traced in pairs]
    metrics = {name: (statistics.median(p[name][0] for p in per_pair), unit)
               for name, (_, unit) in per_pair[0].items()}
    print(f"# {len(pairs)} plain + traced session pairs; medians over pairs")
    print_per_subcommand(pairs[-1][0])
    return metrics, results


def record_digests(commands, workdir) -> int:
    """Store the sha256 of each command's output, if every check passes."""
    results = run_session(commands, workdir, {}, traced=False)
    if any(r.error for r in results):
        print("not recording: some command failed", file=sys.stderr)
        return 1
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests.update({" ".join(r.command.argv): hashlib.sha256(r.out).hexdigest() for r in results})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one session and store its output digests instead of measuring")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "primegaps" / "cli.py").is_file():
        print(f"bench: no primegaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    commands = workloads.commands(args.workload, args.seed)
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        facts = machine_facts()
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print(f"# machine {json.dumps(facts)}")
        if args.record_digests:
            return record_digests(commands, workdir)
        digests = json.loads(DIGESTS.read_text())
        measure = per_layer if args.trace else end_to_end
        metrics, results = measure(commands, workdir, digests, args.seconds)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    failed = sum(r.error is not None for r in results)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / len(results):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
