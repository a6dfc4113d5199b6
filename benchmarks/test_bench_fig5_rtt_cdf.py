"""Figure 5 — CDFs of per-message RTT, work sharing with feedback.

Regenerates the per-consumer-count RTT CDFs for Dstream and Lstream and
checks the qualitative observations of §5.4:

* every CDF is a valid, monotone distribution ending at probability 1,
* beyond ~8 consumers the distributions shift right (larger RTTs),
* MSS's distribution sits to the right of DTS/PRS (its curve is "slower"),
* PRS keeps a tight distribution: the bulk of its messages stay below a
  small multiple of its median (the paper highlights 80% under 0.7 s /
  12.5 s for Dstream / Lstream at 64 consumers).
"""

from __future__ import annotations

import numpy as np

from repro.core import figure5
from repro.metrics import format_table

#: Subset of consumer counts shown in the figure that we regenerate here.
CDF_CONSUMER_COUNTS = (1, 8, 64)


def _quantile(cdf, prob):
    x, p = cdf
    idx = np.searchsorted(p, prob)
    return x[min(idx, len(x) - 1)]


def test_bench_figure5(bench_settings, bench_session):
    data = figure5(messages_per_producer=bench_settings["messages"],
                   consumer_counts=CDF_CONSUMER_COUNTS,
                   seed=bench_settings["seed"],
                   session=bench_session)

    print()
    print(format_table(data.rows,
                       title="Figure 5 source data: median RTT per point"))

    for workload in ("Dstream", "Lstream"):
        cdfs = data.cdfs[workload]
        for consumers in CDF_CONSUMER_COUNTS:
            for architecture, (x, p) in cdfs[consumers].items():
                assert len(x) == len(p) > 0
                assert np.all(np.diff(x) >= 0)
                assert np.all(np.diff(p) >= 0)
                assert p[-1] == 1.0

        # Rightward shift with scale for the managed architecture; DTS stays
        # within a narrow band (the paper even shows a small dip around 8
        # consumers before RTTs rise again).
        assert (_quantile(cdfs[64]["MSS"], 0.5)
                > _quantile(cdfs[1]["MSS"], 0.5))
        dts_small = _quantile(cdfs[1]["DTS"], 0.5)
        dts_large = _quantile(cdfs[64]["DTS"], 0.5)
        assert 0.3 * dts_small <= dts_large <= 50 * dts_small

        # MSS sits to the right of DTS and PRS at 64 consumers.
        mss_median = _quantile(cdfs[64]["MSS"], 0.5)
        assert mss_median > _quantile(cdfs[64]["DTS"], 0.5)
        assert mss_median > _quantile(cdfs[64]["PRS(HAProxy)"], 0.5)

        # PRS keeps a tight distribution: 80th percentile within ~3x median.
        prs_median = _quantile(cdfs[64]["PRS(HAProxy)"], 0.5)
        prs_p80 = _quantile(cdfs[64]["PRS(HAProxy)"], 0.8)
        assert prs_p80 <= 3.0 * prs_median
