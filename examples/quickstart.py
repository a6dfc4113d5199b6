#!/usr/bin/env python3
"""Quickstart: run one streaming experiment and compare architectures.

This example mirrors the paper's basic measurement loop on a small scale:

1. print Table 1 (the workload characteristics),
2. run a single Dstream work-sharing experiment on the DTS architecture,
3. compare DTS, PRS(HAProxy) and MSS on the same scenario — in parallel,
   under an execution :class:`~repro.harness.Session` — and report the
   overhead of the proxied/managed architectures relative to DTS.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import (
    compare_architectures,
    comparison_rows,
    overheads,
    table1_text,
)
from repro.harness import ExperimentConfig, Session, run_experiment
from repro.metrics import format_table


def run_single_experiment() -> None:
    """One experiment point: Dstream, work sharing, 4 producers/consumers."""
    config = ExperimentConfig(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=4,
        num_consumers=4,
        messages_per_producer=50,
        runs=1,
        seed=7,
    )
    result = run_experiment(config)
    run = result.runs[0]
    print("\n== Single experiment (DTS / Dstream / work sharing) ==")
    print(f"  published            : {run.published}")
    print(f"  consumed             : {run.consumed}")
    print(f"  aggregate throughput : {result.throughput_msgs_per_s:,.0f} msgs/s "
          f"({result.throughput_gbps:.3f} Gb/s)")
    print(f"  measurement window   : {run.duration_s*1000:.1f} ms of simulated time")
    print(f"  consumer balance     : {run.consumer_balance:.2f} (max/min messages)")


def run_comparison() -> None:
    """The paper's core loop: same scenario, three architectures.

    The session fans the three architectures out over two worker
    processes; results are bit-identical to a serial session.
    """
    with Session(backend="process", jobs=2) as session:
        comparison = compare_architectures(
            workload="Dstream",
            pattern="work_sharing",
            consumers=4,
            architectures=["DTS", "PRS(HAProxy)", "MSS"],
            messages_per_producer=40,
            seed=7,
            session=session,
        )
    print("\n== Architecture comparison (Dstream / work sharing / 4 consumers) ==")
    print(format_table(comparison_rows(comparison), columns=[
        "architecture", "throughput_msgs_per_s", "throughput_gbps",
        "throughput_overhead_vs_dts", "feasible"]))
    print("\nOverhead vs DTS (higher factor = more overhead):")
    [((), by_architecture)] = comparison.groups()
    for entry in overheads(by_architecture, "throughput_msgs_per_s"):
        print(f"  {entry.architecture:<14} {entry.factor:.2f}x")


def main() -> None:
    print(table1_text())
    run_single_experiment()
    run_comparison()


if __name__ == "__main__":
    main()
