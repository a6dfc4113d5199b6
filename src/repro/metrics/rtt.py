"""Round-trip-time statistics (Figures 5, 6, 7b and 8).

§5.2: "RTT is the time it takes for a message to travel from a producer to
a consumer and for the corresponding reply to return to the producer."  The
harness records one RTT sample per reply received.  An :class:`RTTResult`
keeps those samples and reduces them on read: the median (Figure 6 / 7b)
without the rest of the summary, the nine-number summary once on first
access.  The empirical CDF of Figures 5 and 8 is built by the figures from
the samples pooled across runs (:func:`~repro.metrics.empirical_cdf`), so a
result carries none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .stats import SummaryStats, as_float_array, median, summarize

__all__ = ["RTTResult", "compute_rtt"]


@dataclass(frozen=True)
class RTTResult:
    """RTT samples of one experiment run, reduced on read.

    ``weights`` is ``None`` for discrete-client runs; aggregate-client runs
    carry one multiplicity weight per sample, and every statistic is over
    the expanded logical sample (each sample counted ``weights[i]`` times).

    :attr:`summary` is computed on first access and memoized on the
    instance.  :attr:`median_s` and :attr:`count` of an unweighted sample
    are answered without it, through the helpers :func:`summarize` itself
    uses, so they equal the summary's fields bit for bit.
    """

    samples: np.ndarray = field(repr=False)
    weights: "np.ndarray | None" = field(default=None, repr=False)

    @cached_property
    def summary(self) -> SummaryStats:
        return summarize(self.samples, self.weights)

    @property
    def median_s(self) -> float:
        if self.weights is None and "summary" not in self.__dict__:
            return median(self.samples)
        return self.summary.median

    @property
    def count(self) -> int:
        if self.weights is None:
            return int(self.samples.size)
        return self.summary.count

    def fraction_under(self, threshold_s: float) -> float:
        """Fraction of messages with RTT below ``threshold_s`` (CDF lookup)."""
        if self.samples.size == 0:
            return float("nan")
        if self.weights is not None:
            under = np.dot(self.weights, self.samples <= threshold_s)
            return float(under / np.sum(self.weights))
        return float(np.mean(self.samples <= threshold_s))

    def as_dict(self) -> dict:
        payload = self.summary.as_dict()
        payload["median_s"] = self.median_s
        return payload


def compute_rtt(samples: Iterable[float], *,
                weights: "Iterable[float] | None" = None) -> RTTResult:
    """Wrap raw RTT samples (and multiplicity weights) for reduction."""
    # The result retains the samples, so take an owned copy of the source
    # buffer (coordinators hand in live array('d') columns).
    array = as_float_array(samples, copy=True)
    warray = None
    if weights is not None:
        warray = as_float_array(weights, copy=True)
        if warray.size != array.size:
            raise ValueError(f"weights length {warray.size} does not match "
                             f"sample length {array.size}")
    return RTTResult(samples=array, weights=warray)
