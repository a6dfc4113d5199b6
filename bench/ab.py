"""A/B the benchmark: a git revision against the working tree.

    python3 bench/ab.py --against REV [--workload NAME ...]

REV is exported with ``git archive`` into ``bench/.work/`` (no network, no
worktree metadata) and gets this tree's ``bench/`` and ``BENCHMARK.json``,
so both sides run identical benchmark code, as the choosing-metrics guide
requires.  Ten pairs run; pair ``i`` runs every workload once per side with
seed ``1 + i``, and the side that goes first alternates between pairs.

For every (workload, end-to-end metric) the report gives each side's
median and quartiles, the share of pairs the change won (ties count for
neither) and a verdict:

* ``improved``: the change won at least 9/10 of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``unresolved``: a side's interquartile range exceeds the metric's bound
  (relative to its median), unless every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``no-regression``: none of the above.

Each workload's share of failed points is compared too; more failures on
the change side is a regression.  The raw runs, medians and quartiles go to
``bench/.out/ab-<rev>.json``.  The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Parent/change pairs per A/B, the minimum choosing-metrics §8 allows.
PAIRS = 10
#: Wins a gain needs, as a share of the pairs (choosing-metrics §8).
WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export_revision(sha: str, target: str) -> None:
    """Write REV's committed files to ``target`` and overlay this tree's
    benchmark, so the parent is measured by the same benchmark code."""
    shutil.rmtree(target, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    shutil.rmtree(os.path.join(target, "bench"), ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(target, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  ".out"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), target)


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One benchmark run, as long as ``run_seconds`` says; its final JSON
    line, or a failed stand-in."""
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, text=True, capture_output=True)
    lines = process.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(process.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """Judge one (workload, metric) row from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, parent_median, p3 = quartiles(parent)
    c1, change_median, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (change_median - parent_median)
    if wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(parent_median),
                 (c3 - c1) / abs(change_median))
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(parent_median):
        return "regression"
    return "no-regression"


def summarize(runs: list[dict], name: str) -> dict:
    values = [run["metrics"][name]["value"] for run in runs
              if name in run["metrics"]]
    if not values:
        return {"values": []}
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        config = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    metrics = config["end_to_end"]

    sha = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    parent_tree = os.path.join(BENCH_DIR, ".work", f"ab-{sha[:12]}")
    export_revision(sha, parent_tree)
    sides = {"parent": parent_tree, "change": ROOT}
    runs: dict = {side: {w: [] for w in workloads} for side in sides}
    try:
        for pair in range(PAIRS):
            order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                                "parent"]
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, 1 + pair)
                    runs[side][workload].append(result)
                    print(f"pair {pair} {workload} {side} correct="
                          f"{result['correct']}", file=sys.stderr,
                          flush=True)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    report: dict = {
        "against": sha, "head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "seconds": config["run_seconds"], "pairs": PAIRS,
        "sides": {}, "verdicts": {}}
    regressed = False
    print(f"{'workload':14} {'metric':15} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'won':>5}  verdict")
    for workload in workloads:
        for side in sides:
            report["sides"].setdefault(side, {})[workload] = {
                metric["name"]: summarize(runs[side][workload],
                                          metric["name"])
                for metric in metrics}
        for metric in metrics:
            name = metric["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(runs["parent"][workload],
                                     runs["change"][workload])
                     if name in p["metrics"] and name in c["metrics"]]
            if not pairs:
                result, won = "unresolved", 0.0
                row = ("-", "-")
            else:
                parent, change = map(list, zip(*pairs))
                result = verdict(parent, change, metric["better"],
                                 metric["bound"])
                sign = 1 if metric["better"] == "higher" else -1
                won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
                row = tuple("{1:.5g} [{0:.5g}, {2:.5g}]".format(
                    *quartiles(values)) for values in (parent, change))
            regressed |= result == "regression"
            report["verdicts"][f"{workload}/{name}"] = result
            print(f"{workload:14} {name:15} {row[0]:32} {row[1]:32} "
                  f"{won:5.2f}  {result}")
        shares = {side: (sum(r["failed"] for r in runs[side][workload])
                         / sum(r["attempted"] for r in runs[side][workload]))
                  for side in sides}
        result = ("regression" if shares["change"] > shares["parent"]
                  else "no-regression")
        regressed |= result == "regression"
        report["verdicts"][f"{workload}/failed_share"] = result
        print(f"{workload:14} {'failed_share':15} {shares['parent']:<32.4g} "
              f"{shares['change']:<32.4g} {'':>5}  {result}")

    out = os.path.join(BENCH_DIR, ".out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"ab-{sha[:12]}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**report, "runs": runs}, handle, indent=1)
        handle.write("\n")
    print(f"raw runs: {path}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
