"""Basic statistics helpers shared by the metric calculators."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SummaryStats", "summarize", "empirical_cdf", "median",
           "percentile", "weighted_percentile", "as_float_array"]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    p10: float
    p90: float
    p99: float
    std: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
            "p10": self.p10,
            "p90": self.p90,
            "p99": self.p99,
            "std": self.std,
        }


def as_float_array(values: Iterable[float], *, copy: bool = False) -> np.ndarray:
    """``values`` as a float64 ndarray, avoiding copies where possible.

    ``array('d')`` sample buffers (the metrics hot path) convert through the
    buffer protocol: a zero-copy read-only view by default, or an owned copy
    with ``copy=True`` for results that outlive the source buffer.
    """
    if isinstance(values, np.ndarray):
        converted = values.astype(float, copy=False)
        if copy and converted is values:
            return values.copy()
        return converted
    if isinstance(values, array) and values.typecode == "d":
        if copy:
            return np.array(values, dtype=float)
        return np.frombuffer(values, dtype=float)
    if isinstance(values, (list, tuple)):
        return np.asarray(values, dtype=float)
    return np.fromiter(values, dtype=float)


_as_array = as_float_array


def summarize(values: Iterable[float],
              weights: "Iterable[float] | None" = None) -> SummaryStats:
    """Summary statistics of a sample (NaNs for an empty sample).

    With ``weights`` (multiplicity counts from aggregate-client runs) each
    sample ``x[i]`` counts as ``weights[i]`` observations: the mean, std and
    percentiles are computed over the expanded logical sample without ever
    materialising it.  The unweighted path is untouched, so runs without
    populations produce bit-identical statistics to earlier versions.
    """
    array = _as_array(values)
    if weights is not None:
        return _weighted_summarize(array, _as_array(weights))
    if array.size == 0:
        nan = float("nan")
        return SummaryStats(0, nan, nan, nan, nan, nan, nan, nan, nan)
    minimum = float(np.min(array))
    maximum = float(np.max(array))
    return SummaryStats(
        count=int(array.size),
        # Pairwise summation can land 1 ULP outside the sample range;
        # clamp so min <= mean <= max always holds.
        mean=float(min(max(np.mean(array), minimum), maximum)),
        median=median(array),
        minimum=minimum,
        maximum=maximum,
        p10=float(np.percentile(array, 10)),
        p90=float(np.percentile(array, 90)),
        p99=float(np.percentile(array, 99)),
        std=float(np.std(array)),
    )


def _weighted_summarize(array: np.ndarray, weights: np.ndarray) -> SummaryStats:
    if array.size != weights.size:
        raise ValueError(f"weights length {weights.size} does not match "
                         f"sample length {array.size}")
    if array.size == 0:
        nan = float("nan")
        return SummaryStats(0, nan, nan, nan, nan, nan, nan, nan, nan)
    # Sort once; all reductions below run in the sorted (pinned) order so
    # the floating-point summation order is deterministic across runs.
    order = np.argsort(array, kind="stable")
    sorted_values = array[order]
    sorted_weights = weights[order]
    total = float(np.sum(sorted_weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    minimum = float(sorted_values[0])
    maximum = float(sorted_values[-1])
    mean = float(np.dot(sorted_weights, sorted_values) / total)
    mean = float(min(max(mean, minimum), maximum))
    deviations = sorted_values - mean
    variance = float(np.dot(sorted_weights, deviations * deviations) / total)
    cumulative = np.cumsum(sorted_weights)

    def wpct(q: float) -> float:
        # Smallest sample whose cumulative weight reaches q% of the total —
        # the inverse-CDF percentile over the expanded logical sample.
        target = total * (q / 100.0)
        idx = int(np.searchsorted(cumulative, target, side="left"))
        return float(sorted_values[min(idx, sorted_values.size - 1)])

    return SummaryStats(
        count=int(round(total)),
        mean=mean,
        median=wpct(50),
        minimum=minimum,
        maximum=maximum,
        p10=wpct(10),
        p90=wpct(90),
        p99=wpct(99),
        std=float(np.sqrt(max(variance, 0.0))),
    )


def median(values: Iterable[float]) -> float:
    """Median of an unweighted sample (NaN for an empty sample).

    :func:`summarize` takes its ``median`` from here, so a caller that
    needs only the median gets the same float without the other eight
    statistics.
    """
    array = _as_array(values)
    if array.size == 0:
        return float("nan")
    return float(np.median(array))


def percentile(values: Iterable[float], q: float) -> float:
    array = _as_array(values)
    if array.size == 0:
        return float("nan")
    return float(np.percentile(array, q))


def weighted_percentile(values: Iterable[float], weights: Iterable[float],
                        q: float) -> float:
    """Inverse-CDF percentile of a multiplicity-weighted sample."""
    array = _as_array(values)
    warray = _as_array(weights)
    if array.size == 0:
        return float("nan")
    if array.size != warray.size:
        raise ValueError(f"weights length {warray.size} does not match "
                         f"sample length {array.size}")
    order = np.argsort(array, kind="stable")
    sorted_values = array[order]
    cumulative = np.cumsum(warray[order])
    total = float(cumulative[-1])
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    idx = int(np.searchsorted(cumulative, total * (q / 100.0), side="left"))
    return float(sorted_values[min(idx, sorted_values.size - 1)])


def empirical_cdf(values: Iterable[float],
                  points: int = 200,
                  weights: "Iterable[float] | None" = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample, optionally down-sampled to ``points``.

    Returns ``(x, p)`` arrays where ``p[i]`` is the fraction of samples
    ``<= x[i]``; both arrays are monotonically non-decreasing and ``p`` ends
    at 1.0 (as in the paper's Figures 5 and 8).  With ``weights`` the
    fractions are of the expanded logical sample (each ``x[i]`` standing for
    ``weights[i]`` observations); the unweighted path is byte-identical to
    earlier versions.
    """
    array = _as_array(values)
    if weights is None:
        array = np.sort(array)
        if array.size == 0:
            return np.array([]), np.array([])
        probs = np.arange(1, array.size + 1) / array.size
    else:
        warray = _as_array(weights)
        if array.size != warray.size:
            raise ValueError(f"weights length {warray.size} does not match "
                             f"sample length {array.size}")
        if array.size == 0:
            return np.array([]), np.array([])
        order = np.argsort(array, kind="stable")
        array = array[order]
        cumulative = np.cumsum(warray[order])
        probs = cumulative / cumulative[-1]
    if points and array.size > points:
        idx = np.unique(np.linspace(0, array.size - 1, points).astype(int))
        array, probs = array[idx], probs[idx]
    return array, probs
