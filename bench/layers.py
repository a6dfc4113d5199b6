"""Per-layer host-time attribution for the benchmark's traced run.

The traced run profiles whole workload passes with ``cProfile``, started
from the benchmark (nothing under ``src/`` is instrumented).  This module
turns the profile into per-layer numbers:

* ``<layer>.self_s`` and ``<layer>.share``: ``tottime`` summed per layer.
  Layers are named after the modules the time was spent in.  Built-ins
  (``generator.send``, ``heappush``, numpy's C functions...) have no module
  of their own, so their time is split over their callers along the pstats
  caller edges and charged to the callers' layers.
* Exact work counts: ``ncalls`` of named non-generator functions.  A
  function that no longer exists (or became a generator, whose "calls" are
  resumes) is reported as absent (``None``), never as 0.
* Cumulative times of the result cache's entry points.

All values are per pass.
"""

from __future__ import annotations

import ast
import json
import os
import pstats
import sysconfig
from typing import Callable, Optional

#: Layers, named after the modules they cover.  ``coordinator`` is
#: ``harness/coordinator.py``, ``cache`` is ``harness/cache.py`` plus the
#: ``json`` package, ``harness`` the rest of ``repro.harness``; ``other``
#: takes the benchmark's own code, the profiler and any other package.
LAYERS = ("simkit", "netsim", "amqp", "scistream", "cluster",
          "architectures", "patterns", "workloads", "coordinator",
          "metrics", "numpy", "cache", "harness", "core", "stdlib", "other")

#: ``repro`` sub-packages that are layers under their own name.
_PACKAGE_LAYERS = ("simkit", "netsim", "amqp", "scistream", "cluster",
                   "architectures", "patterns", "workloads", "metrics",
                   "core")

#: Exact work counters: metric -> (file under ``src/repro``, function).
COUNTERS = {
    "simkit.resumes": ("simkit/core.py", "Process._resume"),
    "simkit.timeouts": ("simkit/core.py", "Environment.timeout"),
    "simkit.requests": ("simkit/resources.py", "Resource.request"),
    "amqp.enqueues": ("amqp/queue.py", "ClassicQueue.publish"),
    "coordinator.consumes": ("harness/coordinator.py",
                             "Coordinator.record_consume"),
    "metrics.cdfs": ("metrics/stats.py", "empirical_cdf"),
    "cache.loads": ("harness/cache.py", "ResultCache.load"),
    "cache.stores": ("harness/cache.py", "ResultCache.store"),
    "cache.saves": ("harness/cache.py", "ResultCache.save"),
}

#: Cumulative-time probes: metric -> (file under ``src/repro``, function).
CUMTIMES = {
    "cache.open_s": ("harness/cache.py", "ResultCache.__init__"),
    "cache.load_s": ("harness/cache.py", "ResultCache.load"),
    "cache.store_s": ("harness/cache.py", "ResultCache.store"),
    "cache.save_s": ("harness/cache.py", "ResultCache.save"),
}

#: How many functions the report lists, by self time.
TOP = 25


def layer_resolver(src_dir: str) -> Callable[[str], str]:
    """Map a profiled file name to its layer."""
    import json as json_package

    import numpy

    def root(path: str) -> str:
        return os.path.realpath(path) + os.sep

    repro_root = root(os.path.join(src_dir, "repro"))
    numpy_root = root(os.path.dirname(numpy.__file__))
    json_root = root(os.path.dirname(json_package.__file__))
    stdlib_root = root(sysconfig.get_paths()["stdlib"])
    memo: dict[str, str] = {}

    def resolve(filename: str) -> str:
        if filename in memo:
            return memo[filename]
        path = os.path.realpath(filename)
        layer = "other"
        if path.startswith(repro_root):
            parts = path[len(repro_root):].split(os.sep)
            if parts[0] in _PACKAGE_LAYERS:
                layer = parts[0]
            elif parts[0] == "harness":
                layer = {"coordinator.py": "coordinator",
                         "cache.py": "cache"}.get(parts[-1], "harness")
        elif path.startswith(numpy_root):
            layer = "numpy"
        elif path.startswith(json_root):
            layer = "cache"
        elif path.startswith(stdlib_root) and "site-packages" not in path:
            layer = "stdlib"
        elif filename.startswith("<frozen "):
            layer = "stdlib"
        memo[filename] = layer
        return layer

    return resolve


def charge_layers(stats: dict, layer_of_file: Callable[[str], str]
                  ) -> dict[str, float]:
    """Sum ``tottime`` per layer over a pstats ``stats`` table.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    tottime, cumtime, callers)``, and ``callers`` maps each caller to
    ``(calls, primitive calls, tottime, cumtime)`` of that edge.  A
    built-in (file ``"~"``) is split over its callers in proportion to the
    edges' ``tottime`` (their call counts when every edge reads 0) and
    charged recursively to the callers' layers.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, visiting: frozenset) -> dict[str, float]:
        if func[0] != "~":
            return {layer_of_file(func[0]): 1.0}
        if func in memo:
            return memo[func]
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller not in visiting}
        if sum(weights.values()) <= 0:
            weights = {caller: callers[caller][0] for caller in weights}
        total = sum(weights.values())
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for layer, fraction in shares(caller, visiting | {func}).items():
                result[layer] = (result.get(layer, 0.0)
                                 + fraction * weight / total)
        result = result or {"other": 1.0}
        if not visiting:
            memo[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, entry in stats.items():
        tottime = entry[2]
        if tottime:
            for layer, fraction in shares(func, frozenset()).items():
                totals[layer] += tottime * fraction
    return totals


def find_function(path: str, qualname: str) -> Optional[int]:
    """The first line cProfile labels ``qualname`` in ``path`` with, or
    None when the function is gone or is a generator."""
    try:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except OSError:
        return None
    node = None
    body = tree.body
    for part in qualname.split("."):
        node = next((child for child in body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == part), None)
        if node is None:
            return None
        body = node.body
    if not isinstance(node, ast.FunctionDef) or _is_generator(node):
        return None
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _is_generator(function: ast.FunctionDef) -> bool:
    pending = list(function.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
    return False


def lookup(stats: dict, src_dir: str, probes: dict, column: int
           ) -> dict[str, Optional[float]]:
    """One pstats column (1 = calls, 3 = cumtime) per probed function;
    0 for a function that exists but never ran, None for one that is gone."""
    by_location = {(os.path.realpath(func[0]), func[1], func[2]): entry
                   for func, entry in stats.items() if func[0] != "~"}
    values: dict[str, Optional[float]] = {}
    for metric, (relative, qualname) in probes.items():
        path = os.path.join(src_dir, "repro", relative)
        line = find_function(path, qualname)
        if line is None:
            values[metric] = None
            continue
        key = (os.path.realpath(path), line, qualname.rsplit(".", 1)[-1])
        entry = by_location.get(key)
        values[metric] = entry[column] if entry is not None else 0
    return values


def summarize(profiler, passes: int, src_dir: str) -> dict:
    """Per-pass layer times, shares, exact counts and cache cumtimes."""
    stats = pstats.Stats(profiler).stats
    resolve = layer_resolver(src_dir)
    self_s = charge_layers(stats, resolve)
    total = sum(self_s.values())
    counts = lookup(stats, src_dir, COUNTERS, 1)
    cumtimes = lookup(stats, src_dir, CUMTIMES, 3)
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    return {
        "passes": passes,
        "self_s": {layer: seconds / passes
                   for layer, seconds in self_s.items()},
        "share": {layer: (seconds / total if total else 0.0)
                  for layer, seconds in self_s.items()},
        "counts": {metric: (None if value is None else value // passes)
                   for metric, value in counts.items()},
        "cumtimes": {metric: (None if value is None else value / passes)
                     for metric, value in cumtimes.items()},
        "top": [{"function": pstats.func_std_string(func),
                 "layer": "builtin" if func[0] == "~" else resolve(func[0]),
                 "calls": entry[1], "tottime_s": entry[2],
                 "cumtime_s": entry[3]}
                for func, entry in top[:TOP]],
    }


def write_report(out_dir: str, workload: str, seed: int, profiler,
                 summary: dict) -> str:
    """Write ``trace-<workload>.json`` and the top functions by self time
    (``trace-<workload>-top.txt``) to ``out_dir``; returns the JSON path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, **summary}, handle,
                  indent=2)
        handle.write("\n")
    with open(os.path.join(out_dir, f"trace-{workload}-top.txt"), "w",
              encoding="utf-8") as handle:
        pstats.Stats(profiler, stream=handle).sort_stats(
            "tottime").print_stats(TOP)
    return path
