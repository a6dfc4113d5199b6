#!/usr/bin/env python3
"""Broadcast-and-gather collective on the generic workload (Figures 7/8).

A single producer broadcasts 4 MiB items to every consumer through a fanout
exchange (the DDP weight fan-out / metric-collection motif of §5.1) and then
gathers one reply per consumer per round.  The example reports broadcast
throughput and gather RTT as the consumer count grows, showing the
single-producer bottleneck the paper describes.  Both patterns run as one
sweep grid, split per pattern with ``SweepResult.where``.

Run with::

    python examples/broadcast_gather_collective.py
"""

from __future__ import annotations

from repro.harness import ExperimentConfig, run_sweep
from repro.metrics import format_table


ARCHITECTURES = ("DTS", "PRS(HAProxy)", "MSS")
CONSUMER_COUNTS = (1, 2, 4, 8, 16)


def main() -> None:
    base = ExperimentConfig(
        workload="Generic", pattern="broadcast", num_producers=1,
        messages_per_producer=6, seed=5)
    grid = run_sweep(base, {"architecture": ARCHITECTURES,
                            "pattern": ["broadcast", "broadcast_gather"],
                            "consumers": CONSUMER_COUNTS},
                     equal_producers=False)
    broadcast = grid.where(pattern="broadcast")
    gather = grid.where(pattern="broadcast_gather")

    print("Broadcast throughput (msgs/s received across all consumers) — Fig. 7a:")
    rows = []
    for consumers in CONSUMER_COUNTS:
        row = {"consumers": consumers}
        for architecture in ARCHITECTURES:
            result = broadcast.get(architecture, consumers)
            row[architecture] = round(result.throughput_msgs_per_s, 1)
        rows.append(row)
    print(format_table(rows))

    print("\nBroadcast + gather median RTT (s) — Fig. 7b:")
    rows = []
    for consumers in CONSUMER_COUNTS:
        row = {"consumers": consumers}
        for architecture in ARCHITECTURES:
            result = gather.get(architecture, consumers)
            row[architecture] = round(result.median_rtt_s, 3)
        rows.append(row)
    print(format_table(rows))

    print("\nObservations:")
    dts_curve = dict(gather.series("consumers", "median_rtt_s",
                                   architecture="DTS"))
    prs_curve = dict(gather.series("consumers", "median_rtt_s",
                                   architecture="PRS(HAProxy)"))
    last = CONSUMER_COUNTS[-1]
    print(f"  - PRS tracks DTS closely for the broadcast fan-out "
          f"(at {last} consumers: DTS {dts_curve[last]:.2f}s vs "
          f"PRS {prs_curve[last]:.2f}s median RTT).")
    print("  - RTT rises sharply with consumer count because the single "
          "producer must both broadcast every round and absorb every reply — "
          "the single-producer bottleneck of §5.5.")


if __name__ == "__main__":
    main()
