"""Overhead summary (§5.3/§5.4 prose) and the deployment comparison (§2/§6).

The paper's text quantifies the overhead of PRS/MSS relative to DTS ("up to
2.5x" for work sharing throughput, "6.9x" for MSS feedback RTT) and
qualitatively compares deployment feasibility.  These benches regenerate
both from the simulator.
"""

from __future__ import annotations

from repro.core import (
    architecture_comparison_rows,
    figure4,
    figure6,
    overhead_summary,
)
from repro.architectures import TestbedConfig
from repro.metrics import format_table


def test_bench_overhead_summary(bench_settings, bench_session):
    fig4 = figure4(messages_per_producer=bench_settings["messages"],
                   consumer_counts=(4, 16, 64),
                   architectures=("DTS", "PRS(HAProxy)", "MSS"),
                   seed=bench_settings["seed"], session=bench_session)
    fig6 = figure6(messages_per_producer=bench_settings["messages"],
                   consumer_counts=(4, 16, 64),
                   architectures=("DTS", "PRS(HAProxy)", "MSS"),
                   seed=bench_settings["seed"], session=bench_session)
    rows = overhead_summary(fig4, fig6)
    print()
    print(format_table(rows, title="Overhead vs DTS (throughput and median RTT)"))

    throughput_factors = [row["overhead_factor"] for row in rows
                          if row["metric"] == "throughput_msgs_per_s"]
    rtt_factors = {(row["architecture"], row["workload"], row["consumers"]):
                   row["overhead_factor"] for row in rows
                   if row["metric"] == "median_rtt_s"}

    # Work-sharing overhead in the paper's reported range (up to ~2.5x).
    assert max(throughput_factors) > 1.5
    assert max(throughput_factors) < 6.0
    # MSS feedback RTT overhead is the largest overhead measured (paper: 6.9x).
    mss_rtt = [v for (arch, _w, _c), v in rtt_factors.items() if arch == "MSS"]
    prs_rtt = [v for (arch, _w, _c), v in rtt_factors.items()
               if arch == "PRS(HAProxy)"]
    assert max(mss_rtt) > 2.0
    assert max(mss_rtt) > max(prs_rtt)


def test_bench_deployment_comparison():
    rows = architecture_comparison_rows(
        ["DTS", "PRS(HAProxy)", "MSS"],
        testbed_config=TestbedConfig(producer_nodes=2, consumer_nodes=2))
    print()
    print(format_table(rows, title="Architecture deployment comparison"))

    by_arch = {row["architecture"]: row for row in rows}
    dts, prs, mss = by_arch["DTS"], by_arch["PRS(HAProxy)"], by_arch["MSS"]
    # Hop count ordering: DTS < PRS < MSS (Figure 1's data-flow paths).
    assert dts["data_path_hops"] < prs["data_path_hops"] <= mss["data_path_hops"]
    # Operational burden ordering is the reverse: DTS needs the most rules.
    assert dts["firewall_rules"] > prs["firewall_rules"] > mss["firewall_rules"] == 0
    # MSS offers the best multi-user scalability, DTS the worst (§2).
    assert mss["multi_user_scalability"] > prs["multi_user_scalability"] \
        > dts["multi_user_scalability"]
