"""Run the figure-regeneration benchmark.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out DIR] [--smoke]

Each workload runs in fresh subprocesses started from this checkout's
``src`` (see ``workloads.py``).  Every metric is printed as
``workload metric value unit``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--trace`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
``--trace`` (or ``--trace 1``) makes a separate profiled run and prints
the per-layer ones instead, writing ``trace-<workload>.json`` and the top
functions by self time to ``--out`` (default ``bench/.out``).  Scratch
caches go to ``bench/.work`` and are deleted.  The exit code is 0 when
every output is correct, 1 when a check failed and 2 when the checkout
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from layers import LAYERS
from workloads import TRACE_ROUNDS, WORKLOADS, timed_rounds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")
DEFAULT_OUT = os.path.join(BENCH_DIR, ".out")

#: Fresh interpreters timed for one ``setup_s`` median.
PROBES = {"full": 11, "smoke": 3}
#: Wall-clock budget of all of one workload's jobs, in seconds.
WORKLOAD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child job crashed, timed out or printed no result."""


def child(job: str, workload: str, seed: int, work: str, scale: str,
          deadline: float, *extra: str) -> dict:
    """Run one ``workloads.py`` job in a fresh interpreter and return its
    JSON result.  The job gets its own process group, so a timeout at
    ``deadline`` (a ``time.monotonic()`` value) stops any pool workers it
    started too."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", TMPDIR=work)
    command = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"), job,
               "--workload", workload, "--seed", str(seed), "--work", work,
               "--scale", scale, *extra]
    process = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"{job} {workload} timed out after "
                          f"{WORKLOAD_TIMEOUT_S} s") from None
    finally:
        # Pool workers left behind by a crashed job die with their group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{job} {workload} exited with "
                          f"{process.returncode}")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: list[float]) -> dict:
    wall = run["wall_s"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "sim_msgs_per_s": run["messages"] / wall,
        "point_ms_p50": run["point_ms_p50"],
        "point_ms_p80": run["point_ms_p80"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(base: dict, traced: dict) -> dict:
    """Per-layer metrics: layer times and counts from the profiled run,
    wall and CPU times from the same passes run without the profiler."""
    trace = traced["trace"]
    wall = base["wall_s"]
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = trace["self_s"][layer]
        metrics[f"{layer}.share"] = trace["share"][layer]
    metrics.update(trace["counts"])
    metrics.update(trace["cumtimes"])
    resumes = trace["counts"]["simkit.resumes"]
    metrics["simkit.us_per_resume"] = (
        None if resumes is None else wall / resumes * 1e6 if resumes else 0.0)
    metrics["coordinator.hops_per_consume"] = base["hops_per_consume"]
    metrics["cache.hit_ratio"] = base["hit_ratio"]
    metrics["cache.bytes_on_disk"] = base["bytes_on_disk"]
    metrics["harness.parent_cpu_s"] = base["parent_cpu_s"]
    metrics["harness.worker_cpu_s"] = base["worker_cpu_s"]
    metrics["harness.pool_util"] = base["pool_util"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / wall
    return metrics


def measure(workload: str, args, scale: str) -> tuple[dict, list[dict]]:
    """All metrics of one workload, and the runs that produced them."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    try:
        def job(name: str, *extra: str) -> dict:
            return child(name, workload, args.seed, work, scale, deadline,
                         *extra)

        if workload == "figures_warm":
            job("fill")
        if not args.trace:
            setups = [job("probe")["setup_s"]
                      for _ in range(PROBES[scale])]
            rounds = timed_rounds(workload, args.seconds)
            run = job("run", "--rounds", str(rounds))
            return end_to_end(run, setups), [run]
        rounds = str(TRACE_ROUNDS.get(workload, 1))
        base = job("run", "--rounds", rounds)
        traced = job("run", "--rounds", rounds, "--profile",
                     "--out", args.out)
        return per_layer(base, traced), [base, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long to time passes on the reference "
                             "host (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for trace reports")
    parser.add_argument("--smoke", action="store_true",
                        help="consumer counts (1, 2), 2 msgs/producer")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        config = json.load(f)
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    args.out = os.path.abspath(args.out)
    units = {metric["name"]: metric["unit"]
             for group in ("end_to_end", "per_layer")
             for metric in config[group]}
    scale = "smoke" if args.smoke else "full"
    workloads = args.workload or list(WORKLOADS)

    correct = True
    attempted = failed = 0
    reported: dict = {}
    for workload in workloads:
        try:
            metrics, runs = measure(workload, args, scale)
        except ChildFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            metrics, runs = {}, []
            correct = False
            attempted, failed = attempted + 1, failed + 1
        points = sum(run["attempted"] for run in runs)
        bad = sum(run["failed"] for run in runs)
        attempted += points
        failed += bad
        correct = correct and bad == 0
        for run in runs:
            for failure in run["failures"]:
                print(f"{workload}: {failure}", file=sys.stderr)
        if runs:
            print(f"{workload} digest {runs[0]['digest']} sha256")
            print(f"{workload} passes {runs[0]['rounds']} count")
            if not args.trace:
                print(f"{workload} point_samples "
                      f"{runs[0]['point_samples']} count")
        print(f"{workload} point_fail_ratio "
              f"{bad / points if points else 1.0} fraction")
        for name, value in metrics.items():
            unit = units.get(name, "")
            shown = "absent" if value is None else repr(value)
            print(f"{workload} {name} {shown} {unit}")
            if value is not None:
                key = name if len(workloads) == 1 else f"{workload}/{name}"
                reported[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
