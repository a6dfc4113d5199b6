"""Figure 8 — CDFs of per-message RTT, broadcast and gather.

Regenerates the RTT CDFs of the generic workload under broadcast and gather
and checks the qualitative trends of §5.5:

* valid, monotone CDFs everywhere,
* RTTs grow with consumer count for every architecture,
* at small/medium scale PRS is close to (or better than) DTS,
* at 64 consumers the DTS and PRS distributions converge (the
  single-producer bottleneck equalises them).
"""

from __future__ import annotations

import numpy as np

from repro.core import figure8
from repro.metrics import format_table

CDF_CONSUMER_COUNTS = (2, 16, 64)


def _quantile(cdf, prob):
    x, p = cdf
    idx = np.searchsorted(p, prob)
    return x[min(idx, len(x) - 1)]


def test_bench_figure8(bench_settings, bench_session):
    data = figure8(
        messages_per_producer=max(4, bench_settings["messages"] // 2),
        consumer_counts=CDF_CONSUMER_COUNTS,
        seed=bench_settings["seed"],
        session=bench_session)

    print()
    print(format_table(data.rows,
                       title="Figure 8 source data: gather median RTT per point"))

    cdfs = data.cdfs["Generic"]
    for consumers in CDF_CONSUMER_COUNTS:
        for architecture, (x, p) in cdfs[consumers].items():
            assert len(x) == len(p) > 0
            assert np.all(np.diff(x) >= 0)
            assert np.all(np.diff(p) >= 0)
            assert p[-1] == 1.0

    # RTT distributions shift right as consumers scale up.
    for architecture in ("DTS", "PRS(HAProxy)", "MSS"):
        assert (_quantile(cdfs[64][architecture], 0.5)
                > _quantile(cdfs[2][architecture], 0.5))

    # PRS stays within ~2x of DTS at medium scale (often better in the paper).
    assert (_quantile(cdfs[16]["PRS(HAProxy)"], 0.5)
            < 2.0 * _quantile(cdfs[16]["DTS"], 0.5))

    # At 64 consumers DTS and PRS converge (within 50% of each other).
    dts64 = _quantile(cdfs[64]["DTS"], 0.5)
    prs64 = _quantile(cdfs[64]["PRS(HAProxy)"], 0.5)
    assert abs(dts64 - prs64) < 0.5 * max(dts64, prs64)
