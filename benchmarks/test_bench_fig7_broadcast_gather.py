"""Figure 7 — broadcast throughput and broadcast+gather median RTT.

Regenerates both panels for the generic workload (4 MiB messages) across
DTS, PRS(HAProxy) and MSS and checks §5.5's claims:

* (a) PRS scales almost equivalently to DTS for the broadcast fan-out while
  MSS bottlenecks early and stagnates,
* DTS/PRS eventually stagnate too (large payloads saturate the consumer
  links),
* (b) gather RTTs of DTS and PRS are comparable and rise sharply with the
  consumer count because of the single-producer bottleneck.
"""

from __future__ import annotations

from repro.core import figure7
from repro.metrics import format_table
from .conftest import curve


def test_bench_figure7(bench_settings, bench_session):
    data = figure7(
        messages_per_producer=max(4, bench_settings["messages"] // 2),
        consumer_counts=bench_settings["consumer_counts"],
        seed=bench_settings["seed"],
        session=bench_session)

    print()
    print(format_table(data.rows,
                       title="Figure 7: broadcast throughput (a) and gather RTT (b)"))

    broadcast = data.sweeps["broadcast"]
    gather = data.sweeps["broadcast_gather"]

    dts = curve(broadcast, "DTS")
    prs = curve(broadcast, "PRS(HAProxy)")
    mss = curve(broadcast, "MSS")

    # (a) PRS tracks DTS closely at scale; MSS bottlenecks well below both.
    assert prs[64] > 0.6 * dts[64]
    assert mss[64] < 0.6 * dts[64]
    # MSS stagnates: almost no gain from 16 to 64 consumers.
    assert mss[64] < 1.5 * mss[16]
    # DTS/PRS stagnate eventually as well (sub-linear growth 16 -> 64).
    assert dts[64] < 4.0 * dts[16]

    # (b) gather RTTs: DTS and PRS comparable; all rise sharply with scale.
    dts_rtt = curve(gather, "DTS", "median_rtt_s")
    prs_rtt = curve(gather, "PRS(HAProxy)", "median_rtt_s")
    mss_rtt = curve(gather, "MSS", "median_rtt_s")
    assert prs_rtt[64] < 2.0 * dts_rtt[64]
    assert dts_rtt[64] > 3.0 * dts_rtt[4]
    assert mss_rtt[64] > 3.0 * mss_rtt[4]
    # Small consumer counts stay fast (the paper: under five seconds).
    assert dts_rtt[4] < 5.0
    assert prs_rtt[4] < 5.0
