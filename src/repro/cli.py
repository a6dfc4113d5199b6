"""Command-line front end (the StreamSim-equivalent driver).

Examples::

    repro-streamsim table1
    repro-streamsim compare --workload Dstream --pattern work_sharing --consumers 4
    repro-streamsim experiment --architecture MSS --workload Lstream \
        --pattern work_sharing_feedback --consumers 8 --messages 50
    repro-streamsim figure fig4 --messages 20 --consumers 1 2 4 8 --jobs 4
    repro-streamsim sweep --workload Lstream --architectures DTS MSS \
        --consumers 1 2 4 8 --jobs 4 --cache sweep-cache
    repro-streamsim sensitivity --axis testbed.link_bandwidth_bps=1e9,10e9,100e9 \
        --axis testbed.dsn_count=1,3,5 --architectures DTS MSS --jobs 4
    repro-streamsim chaos --fault broker_kill_rate --rates 0 1 2 \
        --architectures DTS MSS --jobs 4
    repro-streamsim deployment
    repro-streamsim cache stats sweep-cache
    repro-streamsim cache gc sweep-cache --purge-quarantine
    repro-streamsim cache compact sweep-cache
    repro-streamsim lint --list-rules
    repro-streamsim lint --rule D003 --json

The ``cache`` family administers a sharded result-cache directory
(lifecycle management, no simulation): ``stats`` reports entries/bytes/
shards per code fingerprint plus the stale fraction and quarantined
files, ``gc`` evicts stale entries, and ``compact`` rewrites shards in
sorted-key order (byte-identical entries).  A copy of the directory
works as a snapshot.

Every experiment-running subcommand builds one execution
:class:`~repro.harness.session.Session` from a shared option block —
``--jobs N`` (fan points out over workers, bit-identical to serial for the
same seed), ``--backend serial|process`` (named registry backends),
``--cache PATH`` (sharded JSON result-cache directory reused across
invocations; entries written by older code are auto-invalidated unless
``--allow-stale``; a path that is a regular file is refused), and
``--timeout S`` / ``--retries N`` / ``--on-error raise|skip|record`` to
bound each point's wall-clock time and decide what a point that exhausts
its attempts becomes.
Options left unset fall back to ``REPRO_JOBS``/``REPRO_BACKEND``/
``REPRO_CACHE``/... environment variables (see
:meth:`~repro.harness.session.Session.from_env`), so scripted and
interactive invocations configure execution the same way.  Every subcommand
prints an ASCII table; ``--csv PATH`` also writes the rows to a CSV file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .analysis import configure_lint_parser, run_lint
from .core import (
    compare_architectures,
    comparison_rows,
    deployment_comparison,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure_bandwidth_scaling,
    figure_chaos_degradation,
    table1_text,
)
from .core.study import PAPER_ARCHITECTURES
from .faults import FAULT_AXES, FaultPlan
from .harness import (
    ON_ERROR_MODES,
    PAPER_CONSUMER_COUNTS,
    ExperimentConfig,
    ScenarioSet,
    Session,
    backend_names,
    run_sweep,
    scale_link_tiers,
)
from .metrics import format_table, write_csv

__all__ = ["main", "build_parser"]


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _axis_value(token: str):
    """One axis coordinate: int when it parses, then float, else string."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _axis_spec(text: str) -> tuple[str, list]:
    """Parse one ``--axis PATH=V1,V2,...`` occurrence."""
    path, separator, values_text = text.partition("=")
    path = path.strip()
    tokens = [token.strip() for token in values_text.split(",")
              if token.strip()]
    if not separator or not path or not tokens:
        raise argparse.ArgumentTypeError(
            f"expected PATH=V1,V2,... (e.g. testbed.dsn_count=1,3,5), "
            f"got {text!r}")
    return path, [_axis_value(token) for token in tokens]


def _execution_options() -> argparse.ArgumentParser:
    """The shared execution-session option block, as an argparse *parent*.

    Every experiment-running subcommand inherits exactly these flags (one
    definition instead of per-subcommand copies), and
    :meth:`Session.from_args` turns the parsed namespace into a
    :class:`~repro.harness.session.Session` — options left at their default
    fall back to the ``REPRO_*`` environment variables.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "execution", "execution-session options (unset options fall back "
                     "to REPRO_JOBS / REPRO_BACKEND / REPRO_CACHE / "
                     "REPRO_TIMEOUT / REPRO_RETRIES / REPRO_ON_ERROR)")
    group.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="run scenario points on N workers, N >= 1 (bit-identical to "
             "serial execution for the same seed)")
    group.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="named execution backend from the registry (default: process "
             "pool when --jobs > 1, else serial; the serial backend runs "
             "one point at a time and ignores --jobs)")
    group.add_argument(
        "--cache", default=None, metavar="PATH",
        help="sharded JSON result cache directory; already-computed points "
             "are reused and fresh ones are persisted incrementally as "
             "they complete (a path that is a regular file is refused)")
    group.add_argument(
        "--allow-stale", action="store_true",
        help="serve cache entries written by a different version of the "
             "repro source instead of recomputing them")
    group.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-point wall-clock timeout; a point that exceeds it counts "
             "as a failure (and is retried if --retries > 0)")
    # None defaults are "not given" sentinels: an explicit `--retries 0` /
    # `--on-error raise` must override REPRO_RETRIES/REPRO_ON_ERROR rather
    # than being mistaken for the unset default.
    group.add_argument(
        "--retries", type=_non_negative_int, default=None, metavar="N",
        help="extra attempts per failed/timed-out point (default 0); "
             "retries re-derive their seeds from the config, so results "
             "match a clean run")
    group.add_argument(
        "--on-error", choices=ON_ERROR_MODES, default=None,
        dest="on_error",
        help="what a point that exhausts its attempts becomes: raise "
             "aborts the sweep (default), skip drops the point, record "
             "reports it as a failed row")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-streamsim",
        description="Cross-facility data streaming architecture simulator "
                    "(DTS / PRS / MSS reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    execution = _execution_options()

    sub.add_parser("table1", help="print Table 1 (workload characteristics)")

    deployment = sub.add_parser("deployment", parents=[execution],
                                help="print the architecture deployment comparison")
    deployment.add_argument("--architectures", nargs="+",
                            default=["DTS", "PRS(HAProxy)", "MSS"])

    compare = sub.add_parser("compare", parents=[execution],
                             help="compare architectures on one scenario")
    compare.add_argument("--workload", default="Dstream")
    compare.add_argument("--pattern", default="work_sharing")
    compare.add_argument("--consumers", type=int, default=4)
    compare.add_argument("--messages", type=int, default=30)
    compare.add_argument("--runs", type=int, default=1)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--architectures", nargs="+",
                         default=list(PAPER_ARCHITECTURES))
    compare.add_argument("--csv", default=None)

    experiment = sub.add_parser("experiment", parents=[execution],
                                help="run a single experiment point")
    experiment.add_argument("--architecture", default="DTS")
    experiment.add_argument("--workload", default="Dstream")
    experiment.add_argument("--pattern", default="work_sharing")
    experiment.add_argument("--consumers", type=int, default=2)
    experiment.add_argument("--producers", type=int, default=None)
    experiment.add_argument("--messages", type=int, default=50)
    experiment.add_argument("--runs", type=int, default=1)
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--population", type=int, default=1,
                            help="logical clients each producer/consumer "
                                 "process stands for (aggregate-client "
                                 "model; 1 = discrete clients)")
    experiment.add_argument("--csv", default=None)

    figure = sub.add_parser("figure", parents=[execution],
                            help="regenerate one of the paper's figures "
                                 "(or the §6 bandwidth ablation)")
    figure.add_argument("name", choices=["fig4", "fig5", "fig6", "fig7",
                                         "fig8", "bandwidth"])
    figure.add_argument("--messages", type=int, default=15)
    figure.add_argument("--consumers", type=int, nargs="+", default=None,
                        help="consumer counts (fig4-8; default 1..64); for "
                             "the bandwidth figure a single count "
                             "(default 16)")
    figure.add_argument("--link-gbps", type=float, nargs="+",
                        default=[1.0, 10.0, 100.0], dest="link_gbps",
                        help="access-link speeds swept by the bandwidth "
                             "figure")
    figure.add_argument("--runs", type=int, default=1)
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument("--csv", default=None)

    sweep = sub.add_parser(
        "sweep", parents=[execution],
        help="consumer-count sweep over several architectures")
    sweep.add_argument("--workload", default="Dstream")
    sweep.add_argument("--pattern", default="work_sharing")
    sweep.add_argument("--architectures", nargs="+",
                       default=list(PAPER_ARCHITECTURES))
    sweep.add_argument("--consumers", type=int, nargs="+",
                       default=list(PAPER_CONSUMER_COUNTS))
    sweep.add_argument("--messages", type=int, default=20)
    sweep.add_argument("--runs", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--population", type=int, default=1,
                       help="logical clients each producer/consumer process "
                            "stands for (aggregate-client model; 1 = "
                            "discrete clients)")
    sweep.add_argument("--metric", default="throughput_msgs_per_s",
                       help="result attribute reported per point")
    sweep.add_argument("--csv", default=None)

    sensitivity = sub.add_parser(
        "sensitivity", parents=[execution],
        help="sweep arbitrary config/testbed axes (dotted paths) around a "
             "base scenario")
    sensitivity.add_argument(
        "--axis", type=_axis_spec, action="append", default=[],
        metavar="PATH=V1,V2,...",
        help="one sweep axis: a dotted config path (e.g. "
             "testbed.link_bandwidth_bps=1e9,100e9, testbed.dsn_count=1,3,5, "
             "testbed.ack_policy.mode=batch,per_message) or the special "
             "coordinates architecture=... / consumers=...; repeatable")
    sensitivity.add_argument(
        "--architectures", nargs="+", default=None,
        help="shorthand for an architecture axis (runs the whole grid per "
             "architecture)")
    sensitivity.add_argument("--workload", default="Dstream")
    sensitivity.add_argument("--pattern", default="work_sharing")
    sensitivity.add_argument("--consumers", type=int, default=4,
                             help="base consumer count (sweep it via "
                                  "--axis consumers=...)")
    sensitivity.add_argument("--messages", type=int, default=20)
    sensitivity.add_argument("--runs", type=int, default=1)
    sensitivity.add_argument("--seed", type=int, default=1)
    sensitivity.add_argument(
        "--scale-backbone", action="store_true", dest="scale_backbone",
        help="rescale the backbone/gateway tiers along with a swept "
             "testbed.link_bandwidth_bps axis (the §6 ablation shape)")
    sensitivity.add_argument("--metric", default="throughput_msgs_per_s",
                             help="result attribute reported per point")
    sensitivity.add_argument("--csv", default=None)

    chaos = sub.add_parser(
        "chaos", parents=[execution],
        help="chaos sweep: throughput degradation vs fault rate, per "
             "architecture (deterministic fault injection)")
    chaos.add_argument(
        "--fault", choices=FAULT_AXES, default="broker_kill_rate",
        help="which fault axis to sweep (default: broker kills with "
             "queue failover)")
    chaos.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 1.0, 2.0],
        help="fault-axis values; the first is the degradation baseline "
             "(rate axes count expected events over the horizon; "
             "link_degradation/slow_consumer are levels)")
    chaos.add_argument("--architectures", nargs="+",
                       default=list(PAPER_ARCHITECTURES))
    chaos.add_argument("--workload", default="Dstream")
    chaos.add_argument("--consumers", type=int, default=4)
    chaos.add_argument("--messages", type=int, default=25)
    chaos.add_argument("--runs", type=int, default=1)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument(
        "--horizon", type=_positive_float, default=None, metavar="SECONDS",
        help="fault-scheduling window after measurement start (default: "
             "the FaultPlan default, sized to the full-speed messaging "
             "window)")
    chaos.add_argument("--csv", default=None)

    cache = sub.add_parser(
        "cache",
        help="administer a sharded result cache (stats / gc / compact)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def cache_path(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "path", nargs="?", default=None,
            help="cache directory (default: $REPRO_CACHE)")

    stats = cache_sub.add_parser(
        "stats",
        help="entries/bytes/shards per code fingerprint, stale fraction, "
             "unreadable shards, quarantined files")
    cache_path(stats)
    stats.add_argument("--csv", default=None,
                       help="also write the per-fingerprint rows to a CSV "
                            "file")

    gc = cache_sub.add_parser(
        "gc",
        help="evict stale entries and delete emptied shards")
    cache_path(gc)
    gc.add_argument("--purge-quarantine", action="store_true",
                    dest="purge_quarantine",
                    help="also delete quarantined .corrupt files")
    gc.add_argument("--dry-run", action="store_true", dest="dry_run",
                    help="report what would be evicted without writing")

    compact = cache_sub.add_parser(
        "compact",
        help="rewrite shards with sorted keys (surviving entries stay "
             "byte-identical) and clear leftover .tmp files")
    cache_path(compact)

    configure_lint_parser(sub)

    return parser


def _emit(rows: list[dict], *, title: str, csv_path: Optional[str]) -> None:
    print(format_table(rows, title=title))
    if csv_path:
        write_csv(csv_path, rows)
        print(f"\n[wrote {len(rows)} rows to {csv_path}]")


def _report_failures(failures) -> None:
    if failures:
        print(format_table([failure.as_row() for failure in failures],
                           title=f"{len(failures)} failed point(s)"),
              file=sys.stderr)


def _cmd_compare(args: argparse.Namespace, session: Session) -> int:
    comparison = compare_architectures(
        workload=args.workload, pattern=args.pattern, consumers=args.consumers,
        architectures=args.architectures, messages_per_producer=args.messages,
        runs=args.runs, seed=args.seed, session=session)
    _emit(comparison_rows(comparison),
          title=f"{args.workload} / {args.pattern} @ {args.consumers} consumers",
          csv_path=args.csv)
    _report_failures(comparison.failures)
    return 0


def _cmd_sweep(args: argparse.Namespace, session: Session) -> int:
    producers = 1 if args.pattern.startswith("broadcast") else args.consumers[0]
    base = ExperimentConfig(
        workload=args.workload, pattern=args.pattern,
        num_producers=producers, num_consumers=args.consumers[0],
        messages_per_producer=args.messages, runs=args.runs, seed=args.seed,
        population=args.population)
    sweep = run_sweep(
        base, {"architecture": args.architectures,
               "consumers": args.consumers},
        equal_producers=not args.pattern.startswith("broadcast"),
        session=session)
    rows = [{"workload": args.workload, "pattern": args.pattern, **row}
            for row in sweep.rows(args.metric)]
    _emit(rows,
          title=f"{args.workload} / {args.pattern} sweep "
                f"({', '.join(args.architectures)})",
          csv_path=args.csv)
    _report_failures(sweep.failures)
    return 0


def _cmd_experiment(args: argparse.Namespace, session: Session) -> int:
    producers = args.producers
    if producers is None:
        producers = 1 if args.pattern.startswith("broadcast") else args.consumers
    config = ExperimentConfig(
        architecture=args.architecture, workload=args.workload,
        pattern=args.pattern, num_producers=producers,
        num_consumers=args.consumers, messages_per_producer=args.messages,
        runs=args.runs, seed=args.seed, population=args.population)
    # One point through the same session machinery as every sweep, so a
    # single experiment honors --cache/--timeout/--retries too.
    outcomes = session.run(ScenarioSet().add_config(config))
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed or not outcomes:
        for outcome in failed:
            print(f"experiment failed after {outcome.attempts} attempt(s):\n"
                  f"{outcome.error}", file=sys.stderr)
        if not outcomes:  # the point failed and --on-error skip dropped it
            print("experiment failed and was dropped by --on-error skip",
                  file=sys.stderr)
        return 1
    _emit([outcomes[0].result.as_row()], title="Experiment result",
          csv_path=args.csv)
    return 0


def _cmd_figure(args: argparse.Namespace, session: Session) -> int:
    shared = dict(runs=args.runs, seed=args.seed,
                  messages_per_producer=args.messages, session=session)
    if args.name == "bandwidth":
        consumers = args.consumers[0] if args.consumers else 16
        data = figure_bandwidth_scaling(consumers=consumers,
                                        speeds_gbps=args.link_gbps, **shared)
    else:
        generators = {"fig4": figure4, "fig5": figure5, "fig6": figure6,
                      "fig7": figure7, "fig8": figure8}
        consumer_counts = args.consumers or [1, 2, 4, 8, 16, 32, 64]
        data = generators[args.name](consumer_counts=consumer_counts,
                                     **shared)
    _emit(data.rows, title=data.description, csv_path=args.csv)
    for sweep in data.sweeps.values():
        _report_failures(sweep.failures)
    return 0


def _cmd_sensitivity(args: argparse.Namespace, session: Session) -> int:
    axes: dict = {}
    if args.architectures:
        axes["architecture"] = list(args.architectures)
    for path, values in args.axis:
        if path in axes:
            print(f"error: axis {path!r} given more than once "
                  f"(merge the values into one --axis)", file=sys.stderr)
            return 2
        axes[path] = values
    if not axes:
        print("error: no axes to sweep; pass --axis PATH=V1,V2,... "
              "(and/or --architectures)", file=sys.stderr)
        return 2
    transform = None
    if args.scale_backbone:
        overridden = {"testbed.backbone_bandwidth_bps",
                      "testbed.gateway_bandwidth_bps"} & set(axes)
        if overridden:
            # The transform would rewrite those tiers on every point,
            # silently reverting the swept values.
            print(f"error: --scale-backbone derives "
                  f"{', '.join(sorted(overridden))} from the access-link "
                  f"bandwidth; drop the axis or the flag", file=sys.stderr)
            return 2
        transform = scale_link_tiers
    producers = 1 if args.pattern.startswith("broadcast") else args.consumers
    base = ExperimentConfig(
        workload=args.workload, pattern=args.pattern,
        num_producers=producers, num_consumers=args.consumers,
        messages_per_producer=args.messages, runs=args.runs, seed=args.seed)
    try:
        sweep = run_sweep(
            base, axes,
            equal_producers=not args.pattern.startswith("broadcast"),
            transform=transform, session=session)
    except (ValueError, TypeError) as exc:
        # Unknown axis path, empty axis, or an axis value whose type the
        # config validators reject (e.g. testbed.dsn_count=three).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(sweep.rows(args.metric),
          title=f"{args.workload} / {args.pattern} sensitivity "
                f"({' x '.join(sweep.axis_names)})",
          csv_path=args.csv)
    _report_failures(sweep.failures)
    return 0


def _cmd_chaos(args: argparse.Namespace, session: Session) -> int:
    plan = FaultPlan() if args.horizon is None else FaultPlan(
        horizon_s=args.horizon)
    data = figure_chaos_degradation(
        fault_axis=args.fault, rates=args.rates,
        architectures=args.architectures, workload=args.workload,
        consumers=args.consumers, messages_per_producer=args.messages,
        runs=args.runs, seed=args.seed, plan=plan, session=session)
    _emit(data.rows, title=data.description, csv_path=args.csv)
    for sweep in data.sweeps.values():
        _report_failures(sweep.failures)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Cache lifecycle administration (stats/gc/compact)."""
    from .harness import cache_admin

    path = args.path or os.environ.get("REPRO_CACHE", "").strip() or None
    if path is None:
        print("error: no cache path given (pass PATH or set REPRO_CACHE)",
              file=sys.stderr)
        return 2
    try:
        if args.cache_command == "stats":
            stats = cache_admin.collect_stats(path)
            if not os.path.isdir(path):
                print(f"[cache] no cache directory at {path!r} yet "
                      f"(run a sweep with --cache to create one)")
            rows = stats.rows()
            if rows:
                _emit(rows, title=f"result cache {path}", csv_path=args.csv)
            print(f"[cache] {stats.summary()}")
            return 0
        if args.cache_command == "gc":
            report = cache_admin.gc_cache(
                path, purge_quarantine=args.purge_quarantine,
                dry_run=args.dry_run)
            print(f"[cache gc] {report.summary()}")
            return 0
        if args.cache_command == "compact":
            print(f"[cache compact] {cache_admin.compact_cache(path).summary()}")
            return 0
    except ValueError as exc:
        # A cache path that is a regular file, or a shard of another
        # format version.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the subcommand set


def _cmd_deployment(args: argparse.Namespace, session: Session) -> int:
    reports = deployment_comparison(args.architectures, session=session)
    print(format_table([r.as_row() for r in reports.values()],
                       title="Architecture deployment comparison"))
    # Deployments return a plain mapping, so a failed architecture
    # (on_error=skip/record) is simply absent — name the casualties.
    missing = [label for label in dict.fromkeys(args.architectures)
               if label not in reports]
    if missing:
        print(f"[{len(missing)} deployment(s) failed and were omitted: "
              f"{', '.join(missing)}]", file=sys.stderr)
    return 0


_COMMANDS = {
    "deployment": _cmd_deployment,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "figure": _cmd_figure,
    "sweep": _cmd_sweep,
    "sensitivity": _cmd_sensitivity,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        print(table1_text())
        return 0
    if args.command == "cache":
        # Admin commands operate on the cache directory itself; building
        # an execution session (and its ResultCache, which evicts and
        # quarantines on open) would defeat read-only inspection.
        return _cmd_cache(args)
    if args.command == "lint":
        # Static analysis reads source files, never runs simulations —
        # no session, no cache, and its own exit-code contract (0/1/2).
        return run_lint(args)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        return 1
    # One session per invocation: CLI flags overlay REPRO_* env vars, and
    # leaving the block flushes any dirty cache shards.
    try:
        session = Session.from_args(args)
    except ValueError as exc:
        # Bad REPRO_* values deserve the same clean diagnostic as bad
        # flags (which argparse already rejects at parse time).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with session:
        return handler(args, session)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
