#!/usr/bin/env python3
"""Testbed-axis sensitivity grids through the unified runner.

The paper draws every conclusion at one testbed operating point — 1 Gbps
access links, 3 DSNs, batch acknowledgements.  This example sweeps those
axes directly:

1. build a product grid over arbitrary dotted config paths with
   :meth:`~repro.harness.ScenarioSet.product` /
   :func:`~repro.harness.run_sweep` — here link bandwidth, DSN
   count and ack-policy mode around a small base scenario,
2. read the long-format rows and per-axis series the sweep exposes,
3. cache the grid into the *sharded* result-cache layout and re-run it
   instantly from disk, the way a killed sweep resumes,
4. regenerate the §6 "1 vs 100 Gbps" discussion as a figure with
   :func:`~repro.core.figure_bandwidth_scaling`.

Run with::

    python examples/sensitivity_grid.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.architectures import TestbedConfig
from repro.core import figure_bandwidth_scaling
from repro.harness import ExperimentConfig, Session, run_sweep
from repro.metrics import format_table


def base_config() -> ExperimentConfig:
    return ExperimentConfig(
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=8,
        seed=7,
        testbed=TestbedConfig(producer_nodes=8, consumer_nodes=8),
    )


AXES = {
    "architecture": ["DTS", "MSS"],
    "testbed.link_bandwidth_bps": [1e9, 100e9],
    "testbed.ack_policy.mode": ["batch", "per_message"],
}


def main() -> None:
    sweep = run_sweep(base_config(), AXES,
                      session=Session(backend="process", jobs=2))
    print(format_table(sweep.rows("throughput_msgs_per_s"),
                       title=" x ".join(sweep.axis_names)))

    series = sweep.series("testbed.link_bandwidth_bps",
                          architecture="DTS",
                          **{"testbed.ack_policy.mode": "batch"})
    print("\nDTS, batch acks, throughput by access-link bandwidth:")
    for bandwidth_bps, throughput in series:
        print(f"  {bandwidth_bps / 1e9:>5.0f} Gbps -> "
              f"{throughput:8.1f} msg/s")

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "grid-cache")
        start = time.perf_counter()
        with Session(cache=cache_path) as session:
            run_sweep(base_config(), AXES, session=session)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        with Session(cache=cache_path) as session:
            cached = run_sweep(base_config(), AXES, session=session)
        warm_s = time.perf_counter() - start
        shards = len(os.listdir(cache_path))
        print(f"\nSharded cache: {len(cached)} points in {shards} shard "
              f"file(s); cold {cold_s:.2f}s, warm {warm_s:.2f}s")

    figure = figure_bandwidth_scaling(
        architectures=("DTS", "MSS"), consumers=4, speeds_gbps=(1, 100),
        messages_per_producer=6,
        testbed=TestbedConfig(producer_nodes=8, consumer_nodes=8))
    print()
    print(format_table(figure.rows, title=figure.description))


if __name__ == "__main__":
    main()
