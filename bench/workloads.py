"""The benchmark's workloads, their correctness checks, and the child
process that runs them.

``run.py`` starts this file in fresh interpreters, one job each::

    python3 bench/workloads.py probe --workload W --seed N --work DIR
    python3 bench/workloads.py fill  --workload W --seed N --work DIR
    python3 bench/workloads.py run   --workload W --seed N --work DIR \\
        --rounds N [--profile --out DIR]

* ``probe`` times ``import repro.core`` plus opening the workload's
  Session: one sample of ``setup_s``.
* ``fill`` fills the result cache that ``figures_warm`` reads (untimed).
* ``run`` runs one untimed warm-up point per architecture, then times
  ``--rounds`` whole workload passes back to back, checks every pass's
  results and, with ``--profile``, profiles the passes.

``record`` re-records ``expected.json``, the seed-1 result digests, from
serial runs.  Every job prints one JSON object as its last stdout line.
Only the standard library is imported at module level, so a probe's clock
starts before any ``repro`` module loads.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: The figure calls of one workload pass, in order.  Keyword arguments
#: not given here take the figure function's defaults; ``seed`` comes from
#: the command line.
PASSES = {
    "ws_throughput": (("figure4", {}),),
    "bcast_gather": (("figure7", {"messages_per_producer": 24}),
                     ("figure8", {"messages_per_producer": 24})),
    "feedback_pool": (("figure5", {}),),
    "figures_warm": (("figure4", {}), ("figure5", {}), ("figure7", {}),
                     ("figure8", {})),
}
WORKLOADS = tuple(PASSES)
#: Serial, uncached workloads: their points run one after another and
#: make up the whole pass.
SERIAL = ("ws_throughput", "bcast_gather")

#: The reduced grid of ``--smoke`` runs (the self-tests).
SMOKE = {"consumer_counts": (1, 2), "messages_per_producer": 2}
#: One small point per architecture, run before timing starts so lazy
#: imports and first-call costs stay out of the first pass.
WARMUP = {"consumer_counts": (1,), "messages_per_producer": 2}

#: The sweeps each figure returns, in digest order.
SWEEPS = {
    "figure4": ("Dstream", "Lstream"),
    "figure5": ("Dstream", "Lstream"),
    "figure7": ("broadcast", "broadcast_gather"),
    "figure8": ("Generic",),
}
#: The ``repro.core.figures`` constant listing each figure's architectures.
ARCHITECTURES = {
    "figure4": "FIGURE4_ARCHITECTURES",
    "figure5": "RTT_ARCHITECTURES",
    "figure7": "BROADCAST_ARCHITECTURES",
    "figure8": "BROADCAST_ARCHITECTURES",
}
#: §5.3: PRS over Stunnel cannot deploy 32 or 64 consumers.  Every other
#: point of every workload is feasible.
INFEASIBLE_ARCHITECTURE = "PRS(Stunnel)"
INFEASIBLE_CONSUMERS = (32, 64)

#: ``repro.scistream.control.new_uid`` draws ``uuid4``, and the
#: PRS(Stunnel) infeasible reason quotes the proxy name built from it
#: (``s2ds-producer-73e471``), so that text changes on every run.  The
#: digest masks the six uid characters; every other byte is compared.
_PROXY_UID = re.compile(r"(s2ds-[a-z]+-)[0-9a-f]{6}")

#: One pass plus its untimed check on the reference host (see README.md),
#: in seconds.  A run of ``--seconds S`` times ``S / PASS_S`` passes: a
#: fixed count, not "as many as fit", so a faster tree does not get more
#: samples (and so a lower minimum) than a slower one.
PASS_S = {"ws_throughput": 4.6, "bcast_gather": 7.2, "feedback_pool": 4.0,
          "figures_warm": 0.18}
#: A timed run measures at least this many passes, however short --seconds.
MIN_ROUNDS = 3
#: Passes a traced run profiles: one, or ten of the 0.1 s warm passes.
TRACE_ROUNDS = {"figures_warm": 10}


def timed_rounds(workload: str, seconds: float) -> int:
    """The number of passes a run of ``seconds`` times."""
    return max(MIN_ROUNDS, round(seconds / PASS_S[workload]))


def pool_jobs() -> int:
    """Workers of the ``feedback_pool`` session: one per available CPU,
    capped at four so a large shared host does not fork dozens."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def figure_calls(workload: str, scale: str) -> list[tuple[str, dict]]:
    """(figure function name, keyword arguments) for one pass."""
    extra = SMOKE if scale == "smoke" else {}
    return [(name, {**kwargs, **extra}) for name, kwargs in PASSES[workload]]


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero: an
    installed copy elsewhere must not be measured by mistake."""
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import repro from {SRC_DIR}: {exc}")
    source = os.path.realpath(repro.__file__)
    if not source.startswith(os.path.realpath(SRC_DIR) + os.sep):
        sys.exit(f"repro was imported from {source}, not from {SRC_DIR}")


def open_session(workload: str, cache=None, progress=None):
    """The Session a pass of ``workload`` runs under, as users run it."""
    from repro.harness import Session

    if workload == "feedback_pool":
        return Session(backend="process", jobs=pool_jobs(), cache=cache,
                       progress=progress)
    return Session(cache=cache, progress=progress)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def pass_points(calls: list[tuple[str, dict]], datas: dict):
    """Yield ``(key, result, messages_per_producer)`` for every point of a
    pass in the fixed figure/sweep/architecture/consumers order.  ``result``
    is None for a point the pass did not produce."""
    from repro.core import figures

    for name, kwargs in calls:
        params = inspect.signature(getattr(figures, name)).parameters
        messages = kwargs.get("messages_per_producer",
                              params["messages_per_producer"].default)
        counts = kwargs.get("consumer_counts",
                            params["consumer_counts"].default)
        data = datas.get(name)
        for sweep_name in SWEEPS[name]:
            sweep = None if data is None else data.sweeps.get(sweep_name)
            for architecture in getattr(figures, ARCHITECTURES[name]):
                for consumers in counts:
                    result = (None if sweep is None
                              else sweep.get(architecture, consumers))
                    yield ((name, sweep_name, architecture, consumers),
                           result, messages)


def point_problem(key: tuple, result, messages: int):
    """Why a point's result is wrong, or None when it is right."""
    from repro.harness import ExperimentConfig
    from repro.patterns import make_pattern

    _, _, architecture, consumers = key
    if result is None:
        return "no result"
    if (result.architecture, result.num_consumers) != (architecture,
                                                       consumers):
        return (f"result belongs to {result.architecture} at "
                f"{result.num_consumers} consumers")
    infeasible = (architecture == INFEASIBLE_ARCHITECTURE
                  and consumers in INFEASIBLE_CONSUMERS)
    if not result.feasible:
        return None if infeasible else (
            f"infeasible: {result.infeasible_reason}")
    if infeasible:
        return "feasible, but the paper finds it infeasible"
    config = ExperimentConfig(
        architecture=architecture, workload=result.workload,
        pattern=result.pattern, num_producers=result.num_producers,
        num_consumers=consumers, messages_per_producer=messages)
    pattern = make_pattern(result.pattern)
    expected = (pattern.expected_consumed(config),
                pattern.expected_replies(config))
    for run in result.runs:
        if not run.completed:
            return "run did not complete"
        if (run.consumed, run.replies) != expected:
            return (f"consumed/replies {run.consumed}/{run.replies}, "
                    f"expected {expected[0]}/{expected[1]}")
    return None


def check_pass(calls: list[tuple[str, dict]], datas: dict) -> dict:
    """Check every point of one pass and digest the results.

    The digest is the sha256 of the newline-joined
    ``ExperimentResult.to_json_dict()`` payloads, each dumped with
    ``sort_keys=True`` as the determinism-matrix goldens are, with proxy
    uids masked (see ``_PROXY_UID``).
    """
    payloads: list[str] = []
    failures: list[str] = []
    messages = consumed = hops = 0
    for key, result, per_producer in pass_points(calls, datas):
        problem = point_problem(key, result, per_producer)
        if problem is not None:
            failures.append(f"{'/'.join(map(str, key))}: {problem}")
        if result is None:
            payloads.append("null")
            continue
        payloads.append(_PROXY_UID.sub(
            r"\1uid", json.dumps(result.to_json_dict(), sort_keys=True)))
        for run in result.runs:
            messages += run.consumed + run.replies
            consumed += run.consumed
            hop_counts = run.extra.get("coordinator", {}).get(
                "hop_count_by_kind", {})
            hops += sum(hop_counts.values())
    return {
        "points": len(payloads),
        "failures": failures,
        "digest": hashlib.sha256("\n".join(payloads).encode()).hexdigest(),
        "messages": messages,
        "hops_per_consume": hops / consumed if consumed else 0.0,
    }


def expected_digest(workload: str, scale: str, seed: int):
    """The recorded digest to compare against (seed 1 only), or None."""
    if seed != 1:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    return expected["digests"][scale][workload]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _directory_bytes(path: str) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, name))
                     for name in filenames)
    return total


def probe_job(args) -> dict:
    import_repro()
    import repro.core  # noqa: F401 - the import is what is timed

    session = open_session(args.workload, cache=_cache_dir(args, "probe"))
    elapsed = time.perf_counter() - _STARTED
    session.close()
    return {"setup_s": elapsed}


def fill_job(args) -> dict:
    import_repro()
    from repro.core import figures
    from repro.harness import Session

    calls = figure_calls(args.workload, args.scale)
    with Session(backend="process", jobs=pool_jobs(),
                 cache=_cache_dir(args, "filled")) as session:
        for name, kwargs in calls:
            getattr(figures, name)(session=session, seed=args.seed, **kwargs)
    return {"filled": len(calls)}


def _cache_dir(args, purpose: str):
    """The cache a session of this workload opens, or None.

    ``figures_warm`` reads the filled cache; ``feedback_pool`` writes a
    fresh empty directory (``purpose`` names it); the others run uncached.
    """
    if args.workload == "figures_warm":
        return os.path.join(args.work, "cache")
    if args.workload == "feedback_pool":
        return os.path.join(args.work, purpose)
    return None


def _timed_loads(cache, samples: list[float]) -> None:
    """Append the host time of every ``cache.load(point)`` call to
    ``samples``."""
    load = cache.load

    def timed_load(point):
        started = time.perf_counter()
        try:
            return load(point)
        finally:
            samples.append(time.perf_counter() - started)

    cache.load = timed_load


def run_pass(args, calls, index: int, profiler) -> dict:
    """Run and time one workload pass, then check it (untimed).

    ``samples`` holds one time per point, in the pass's fixed point order:
    its host time for the serial workloads (the gap to the next progress
    call, as progress fires when each point starts); its time to result
    since the pass started for the pool (progress fires as each point
    completes, in completion order); and its ``cache.load`` time for
    ``figures_warm``, which never calls progress.
    """
    from repro.core import figures
    from repro.harness import ResultCache

    workload = args.workload
    ticks: list[float] = []
    call_ends: list[tuple[int, float]] = []
    samples: list[float] = []

    def progress(point) -> None:
        ticks.append(time.perf_counter())

    cache_path = cache = _cache_dir(args, f"round-{index}")
    datas: dict = {}
    error = None
    parent_cpu = _cpu_s(resource.RUSAGE_SELF)
    worker_cpu = _cpu_s(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        if workload == "figures_warm":
            # Opening the cache (reading every shard) is part of the pass.
            cache = ResultCache(cache_path)
            _timed_loads(cache, samples)
        with open_session(workload, cache=cache, progress=progress) \
                as session:
            for name, kwargs in calls:
                first = len(ticks)
                datas[name] = getattr(figures, name)(
                    session=session, seed=args.seed, **kwargs)
                call_ends.append((first, time.perf_counter()))
            if workload == "figures_warm":
                figures.overhead_summary(datas["figure4"], datas["figure5"])
    except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
        error = traceback.format_exc()
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - started
    parent_cpu = _cpu_s(resource.RUSAGE_SELF) - parent_cpu
    worker_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - worker_cpu
    if workload == "feedback_pool":
        samples = [tick - started for tick in ticks]
    elif workload in SERIAL:
        lasts = [first for first, _ in call_ends[1:]] + [len(ticks)]
        for (first, end), last in zip(call_ends, lasts):
            times = ticks[first:last] + [end]
            samples += [b - a for a, b in zip(times, times[1:])]

    checked = check_pass(calls, datas)
    if error is not None:
        checked["failures"].append(f"pass raised:\n{error}")
    if workload == "figures_warm" and ticks:
        checked["failures"].append(
            f"{len(ticks)} of {checked['points']} points missed the cache")
    bytes_on_disk = 0
    if cache_path is not None:
        bytes_on_disk = _directory_bytes(cache_path)
    if workload == "feedback_pool":
        shutil.rmtree(cache_path, ignore_errors=True)
    return {"wall": wall, "samples": samples,
            "progress_calls": len(ticks), "parent_cpu_s": parent_cpu,
            "worker_cpu_s": worker_cpu, "bytes_on_disk": bytes_on_disk,
            **checked}


def warm_up(args) -> None:
    """One small untimed point per architecture of the workload, serial
    and uncached; ``figures_warm`` instead reads one whole pass from its
    cache, which is just as cheap."""
    from repro.core import figures
    from repro.harness import Session

    calls = figure_calls(args.workload, args.scale)
    warm = args.workload == "figures_warm"
    with Session(cache=_cache_dir(args, "warmup") if warm else None) \
            as session:
        for name, kwargs in calls:
            getattr(figures, name)(session=session, seed=args.seed,
                                   **(kwargs if warm else {**kwargs,
                                                           **WARMUP}))


def run_job(args) -> dict:
    import_repro()
    warm_up(args)
    calls = figure_calls(args.workload, args.scale)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    passes = [run_pass(args, calls, index, profiler)
              for index in range(args.rounds)]
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    first = passes[0]
    failures = [f"pass {index}: {failure}"
                for index, item in enumerate(passes)
                for failure in item["failures"]]
    failed = sum(min(len(item["failures"]), item["points"])
                 for item in passes)
    attempted = sum(item["points"] for item in passes)
    digests = {item["digest"] for item in passes}
    if len(digests) > 1:
        failures.append(f"passes disagree: {len(digests)} distinct digests")
        failed = attempted
    expected = expected_digest(args.workload, args.scale, args.seed)
    if expected is not None and first["digest"] != expected:
        failures.append(f"digest {first['digest']} != recorded {expected}")
        failed = attempted
    rounds = len(passes)
    walls = [item["wall"] for item in passes]
    # Other tenants of a shared host only ever slow a pass down, in bursts
    # shorter than a pass, so the fastest of a fixed number of observations
    # is the steadiest estimate (README.md, "Estimators", has the numbers).
    # Sample i is the same point (the same completion rank, for the pool)
    # in every pass, so each gets its fastest time over the passes.  A
    # serial pass is the sum of its points' times plus a remainder outside
    # them, so it is estimated as the sum of the fastest times plus the
    # fastest remainder; the others as the fastest whole pass.
    fastest = list(map(min, zip(*(item["samples"] for item in passes))))
    if args.workload in SERIAL:
        wall_s = sum(fastest) + min(item["wall"] - sum(item["samples"])
                                    for item in passes)
    else:
        wall_s = min(walls)
    point_ms = [seconds * 1e3 for seconds in fastest]
    jobs = pool_jobs() if args.workload == "feedback_pool" else 1
    worker_cpu_s = sum(item["worker_cpu_s"] for item in passes) / rounds
    outcome = {
        "workload": args.workload,
        "rounds": rounds,
        "wall_s": wall_s,
        "point_samples": len(point_ms),
        # p80: the highest decile with at least 10 of the 56-189 points
        # beyond it.
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p80": statistics.quantiles(
            point_ms, n=5, method="inclusive")[-1],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": first["digest"],
        "messages": first["messages"],
        "hops_per_consume": first["hops_per_consume"],
        "hit_ratio": 1.0 - sum(item["progress_calls"] for item in passes)
        / attempted,
        "parent_cpu_s": sum(item["parent_cpu_s"] for item in passes) / rounds,
        "worker_cpu_s": worker_cpu_s,
        "pool_util": worker_cpu_s * rounds / (jobs * sum(walls)),
        "bytes_on_disk": passes[-1]["bytes_on_disk"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if profiler is not None:
        import layers

        outcome["trace"] = layers.summarize(profiler, rounds, SRC_DIR)
        layers.write_report(args.out, args.workload, args.seed, profiler,
                            outcome["trace"])
    return outcome


def record_job(args) -> dict:
    """Re-record the seed-1 digests from serial, uncached passes."""
    import_repro()
    from repro.core import figures
    from repro.harness import Session

    digests: dict = {}
    for scale in ("full", "smoke"):
        digests[scale] = {}
        for workload in WORKLOADS:
            calls = figure_calls(workload, scale)
            with Session() as session:
                datas = {name: getattr(figures, name)(session=session, seed=1,
                                                      **kwargs)
                         for name, kwargs in calls}
            checked = check_pass(calls, datas)
            if checked["failures"]:
                raise RuntimeError(f"{workload} ({scale}) fails its checks: "
                                   f"{checked['failures'][:5]}")
            digests[scale][workload] = checked["digest"]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": 1, "digests": digests}, handle, indent=2)
        handle.write("\n")
    return digests


JOBS = {"probe": probe_job, "fill": fill_job, "run": run_job,
        "record": record_job}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work", help="scratch directory for caches")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--out", help="directory for the trace report")
    args = parser.parse_args(argv)
    print(json.dumps(JOBS[args.job](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
