"""Figure 6 — median RTT under work sharing with feedback.

Regenerates the median-RTT-vs-consumers curves for Dstream and Lstream and
checks §5.4's claims:

* DTS and PRS(HAProxy) stay close (PRS is sometimes slightly better),
* MSS shows the largest RTTs with a sharp increase at 64 consumers,
* the MSS overhead factor vs DTS is large (the paper quotes 6.9x),
* adding proxy connections (HAProxy x4) does not change RTT noticeably.
"""

from __future__ import annotations

from repro.core import figure6
from repro.metrics import format_table
from .conftest import curve


def test_bench_figure6(bench_settings, bench_session):
    data = figure6(messages_per_producer=bench_settings["messages"],
                   consumer_counts=bench_settings["consumer_counts"],
                   seed=bench_settings["seed"],
                   session=bench_session)

    print()
    print(format_table(data.rows,
                       title="Figure 6: median RTT (s), work sharing with feedback"))

    for workload in ("Dstream", "Lstream"):
        sweep = data.sweeps[workload]
        dts = curve(sweep, "DTS", "median_rtt_s")
        prs = curve(sweep, "PRS(HAProxy)", "median_rtt_s")
        prs4 = curve(sweep, "PRS(HAProxy,4conns)", "median_rtt_s")
        mss = curve(sweep, "MSS", "median_rtt_s")

        # MSS is the worst architecture at scale and blows up at 64 consumers.
        assert mss[64] > dts[64]
        assert mss[64] > prs[64]
        assert mss[64] > 2.5 * mss[4]

        # DTS and PRS(HAProxy) remain comparable (within ~2x of each other).
        assert prs[64] < 2.0 * dts[64]
        assert dts[64] < 2.0 * max(prs[64], dts[64])

        # Extra proxy connections yield no observable RTT improvement (§5.4).
        assert abs(prs4[64] - prs[64]) < 0.5 * prs[64] + 1e-9

        # Overhead factor vs DTS is substantial for MSS (paper: up to 6.9x).
        assert mss[64] / dts[64] > 2.0

    # Dstream RTTs are far smaller than Lstream RTTs (16 KiB vs 1 MiB).
    dstream_dts = curve(data.sweeps["Dstream"], "DTS", "median_rtt_s")
    lstream_dts = curve(data.sweeps["Lstream"], "DTS", "median_rtt_s")
    assert dstream_dts[64] < lstream_dts[64]
