"""Run one primegaps CLI command with its layers traced.

    python3 bench/shim.py TRACE_JSON SUBCOMMAND [ARG...]

The layers are the package modules named in LAYERS.  Every public function
and public method a layer module defines is wrapped, under every name the
package binds it to: `gaps.primes_between` and `gpy.factorize` are the
sieve's functions and their time is sieve time.  Each call becomes a span
(name, start, end, parent) kept in memory.  Calls of one function past
SPAN_LIMIT are only counted, and their time stays with the caller.  Running
a layer module's top level at import is a span of that layer too, so every
layer a command imports has some self time.

When the command ends, the spans, each layer's self time (span time minus
the time of child spans), call counts, work counters and cache statistics
go to TRACE_JSON.  The shim writes nothing to stdout, so the command's
output bytes are those of an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "primegaps"
LAYERS = ("sieve", "gaps", "tuples", "polys", "gpy", "progressions", "cli")
SPAN_LIMIT = 10_000


class Tracer:
    """Spans, self times and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[list] = []  # [span index, seconds covered by children]
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.sieved: list[tuple[int, int]] = []
        self.primes_upto_len: dict[int, int] = {}

    def call(self, layer: str, name: str, fn, args, kwargs):
        self.calls[name] += 1
        if self.calls[name] > SPAN_LIMIT:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append([name, 0.0, 0.0, parent[0] if parent else -1])
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[frame[0]][1:3] = start, end
            self.inclusive_s[name] += end - start
            self.self_s[layer] += end - start - frame[1]
            if parent:
                parent[1] += end - start


# Work counters, keyed by traced function: hook(tracer, bound arguments, result).
def _add(counter: str, amount):
    def hook(t: Tracer, a: dict, r) -> None:
        t.counters[counter] += amount(t, a, r)
    return hook


def _form_ints(t, a, r):
    return (a["x"] + 1) * len(a["w"].lam)


HOOKS = {
    "sieve.sieve_range": lambda t, a, r: t.sieved.append((a["lo"], a["hi"])),
    "sieve.primes_upto": lambda t, a, r: t.primes_upto_len.__setitem__(a["n"], len(r)),
    "gaps.gap_histogram": _add("gaps.items", lambda t, a, r: r.total),
    "gaps.cramer_simulate": _add("gaps.items", lambda t, a, r: r.histogram.total),
    "gaps.interval_count_distribution": _add("gaps.items", lambda t, a, r: r.n_samples),
    "gpy.build_weights": _add("gpy.weights", lambda t, a, r: len(r.lam)),
    "gpy.denominator_form": _add("gpy.profile_ints", _form_ints),
    "gpy.numerator_form": _add("gpy.profile_ints", _form_ints),
    "progressions.error_table": lambda t, a, r: t.counters.update({
        "progressions.moduli": 1,
        "progressions.residue_ops": t.primes_upto_len[a["x"]],
    }),
    "progressions.bv_scan": lambda t, a, r: t.counters.update({
        "progressions.moduli": a["Q_max"],
        "progressions.residue_ops": t.primes_upto_len[a["x"]] * a["Q_max"],
    }),
}

# lru caches read at exit: (module, attribute) -> name in the trace
CACHES = {
    ("sieve", "primes_upto"): "sieve.primes_upto",
    ("tuples", "_nu_cached"): "tuples.nu",
    ("progressions", "_li_cached"): "progressions.li",
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(layer, name, fn, args, kwargs)
        if hook:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


def _wrap_methods(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, types.FunctionType):
            setattr(cls, attr, _wrap(tracer, layer, name, value))
        elif isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(_wrap(tracer, layer, name, value.__func__)))


def instrument(tracer: Tracer) -> dict:
    """Import the layers and wrap their public callables; return the modules."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_methods(tracer, layer, obj)
            elif callable(obj):
                wrappers[id(obj)] = (obj, _wrap(tracer, layer, f"{layer}.{attr}", obj))
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                setattr(module, attr, wrapper)
    return modules


class ImportSpans:
    """Meta-path finder: executing a layer module's top level is a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.rpartition(".")
        if package != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None:
            exec_module = spec.loader.exec_module
            spec.loader.exec_module = lambda module: self.tracer.call(
                layer, f"{layer}.import", exec_module, (module,), {}
            )
        return spec


def _import_dependencies() -> None:
    # imported first so that their cost is not counted as any layer's
    import mpmath  # noqa: F401
    import numpy  # noqa: F401


def _distinct(ranges: list[tuple[int, int]]) -> int:
    """Number of integers in the union of half-open ranges."""
    total, reach = 0, None
    for lo, hi in sorted(ranges):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def write_trace(tracer: Tracer, modules: dict, path: str, argv: list[str], code) -> None:
    counters = dict(tracer.counters)
    counters["sieve.ints_sieved"] = sum(hi - lo for lo, hi in tracer.sieved)
    counters["sieve.ints_distinct"] = _distinct(tracer.sieved)
    caches = {}
    for (layer, attr), name in CACHES.items():
        fn = getattr(modules[layer], attr)
        info = (fn if hasattr(fn, "cache_info") else fn.__wrapped__).cache_info()
        caches[name] = [info.hits, info.misses]
    doc = {
        "argv": argv,
        "exit_code": code,
        "self_s": tracer.self_s,
        "inclusive_s": tracer.inclusive_s,
        "calls": tracer.calls,
        "counters": counters,
        "caches": caches,
        "spans": tracer.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, ImportSpans(tracer))
    tracer.call("deps", "deps.import", _import_dependencies, (), {})
    modules = instrument(tracer)
    code = None
    try:
        code = modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        write_trace(tracer, modules, path, argv, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
