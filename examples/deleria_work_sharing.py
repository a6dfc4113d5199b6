#!/usr/bin/env python3
"""GRETA/Deleria (Dstream) work-sharing scenario across all architectures.

Reproduces a scaled-down slice of Figure 4a: the Deleria gamma-ray event
stream (16 KiB messages batching eight 2 KiB events) distributed to a
growing pool of analysis consumers through shared work queues, for every
architecture the paper evaluates — including the Stunnel tunnel that becomes
infeasible beyond 16 connections.

Run with::

    python examples/deleria_work_sharing.py
"""

from __future__ import annotations

from repro.core import PAPER_ARCHITECTURES, overheads
from repro.harness import ExperimentConfig, run_sweep
from repro.metrics import format_table
from repro.workloads import DSTREAM


def main() -> None:
    print("Deleria/GRETA streaming characteristics:")
    for key, value in DSTREAM.table_row().items():
        print(f"  {key:<26}: {value}")

    base = ExperimentConfig(
        workload="Dstream",
        pattern="work_sharing",
        messages_per_producer=25,
        seed=11,
    )
    consumer_counts = (1, 2, 4, 8, 16, 32)
    sweep = run_sweep(base, {"architecture": PAPER_ARCHITECTURES,
                             "consumers": consumer_counts})

    print("\nAggregate consumer throughput (msgs/s) — Figure 4a, scaled down:")
    rows = []
    for consumers in consumer_counts:
        row = {"consumers": consumers}
        for architecture in PAPER_ARCHITECTURES:
            result = sweep.get(architecture, consumers)
            if result is None or not result.feasible:
                row[architecture] = None      # e.g. Stunnel beyond 16 connections
            else:
                row[architecture] = round(result.throughput_msgs_per_s)
        rows.append(row)
    print(format_table(rows))

    # Overhead of each architecture vs the DTS baseline at the largest
    # count, among the feasible points (the paper quotes "up to 2.5x" for
    # this pattern).  groups() lines the architectures up per count.
    largest = consumer_counts[-1]
    by_architecture = dict(sweep.groups())[(largest,)]
    print(f"\nThroughput overhead vs DTS at {largest} consumers:")
    for entry in overheads(by_architecture, "throughput_msgs_per_s"):
        print(f"  {entry.architecture:<22} {entry.factor:.2f}x")

    infeasible = [(arch, consumers) for arch in PAPER_ARCHITECTURES
                  for consumers in consumer_counts
                  if (result := sweep.get(arch, consumers)) is not None
                  and not result.feasible]
    if infeasible:
        print("\nInfeasible configurations (as in the paper's missing data points):")
        for arch, consumers in infeasible:
            print(f"  {arch} at {consumers} consumers")


if __name__ == "__main__":
    main()
