"""Lightweight instrumentation for simulated components.

Two primitives:

* :class:`Counter` — monotonically increasing counts (messages published,
  messages consumed, bytes transferred, rejected publishes).
* :class:`TimeSeries` — timestamped samples with summary statistics
  computed lazily via numpy, for probing one component (a queue's depth
  over time, say).  No simulated element records a series per message:
  the per-hop latency that results report comes from the per-kind hop
  totals each message carries (see
  :meth:`~repro.netsim.message.Message.record_hop`).

A :class:`Monitor` groups named counters/series for one component and can be
merged with others.

Counters sit on the per-message hot path, so both primitives are
allocation-light: ``__slots__`` instead of instance dicts, and
:class:`TimeSeries` stores its samples in ``array('d')`` column buffers
(one C double per sample) rather than lists of boxed floats.  Hot call
sites are expected to look up their :class:`Counter` once
(``monitor.counter(name)``) and keep the returned object, rather than
paying the name lookup per message.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

__all__ = ["Counter", "TimeSeries", "Monitor"]


@dataclass(slots=True)
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a separate counter")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class TimeSeries:
    """Timestamped samples with numpy-backed summary statistics.

    Samples live in two parallel ``array('d')`` columns; statistics wrap
    them in transient zero-copy numpy views.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str,
                 times: Optional[Iterable[float]] = None,
                 values: Optional[Iterable[float]] = None) -> None:
        self.name = name
        self.times: array = array("d", times if times is not None else ())
        self.values: array = array("d", values if values is not None else ())

    def record(self, time: float, value: float) -> None:
        # array('d').append coerces (and type-checks) to a C double.
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeSeries(name={self.name!r}, samples={len(self.values)})"

    def merge(self, other: "TimeSeries") -> None:
        self.times.extend(other.times)
        self.values.extend(other.values)

    # -- statistics ---------------------------------------------------------
    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (times, values) columns as float64 arrays."""
        return (np.array(self.times, dtype=float),
                np.array(self.values, dtype=float))

    def _view(self) -> np.ndarray:
        """Transient zero-copy (read-only) view of the value column."""
        return np.frombuffer(self.values, dtype=float)

    def mean(self) -> float:
        return float(np.mean(self._view())) if self.values else float("nan")

    def median(self) -> float:
        return float(np.median(self._view())) if self.values else float("nan")

    def percentile(self, q: float | Iterable[float]):
        if not self.values:
            return float("nan")
        return np.percentile(self._view(), q)

    def minimum(self) -> float:
        return float(np.min(self._view())) if self.values else float("nan")

    def maximum(self) -> float:
        return float(np.max(self._view())) if self.values else float("nan")

    def cdf(self, points: int = 100) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF evaluated at ``points`` evenly spaced quantiles."""
        if not self.values:
            return np.array([]), np.array([])
        values = np.sort(self._view())
        probs = np.arange(1, len(values) + 1) / len(values)
        if points >= len(values):
            return values, probs
        idx = np.linspace(0, len(values) - 1, points).astype(int)
        return values[idx], probs[idx]


class Monitor:
    """Named collection of counters and time series for one component."""

    __slots__ = ("name", "counters", "series")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counters: dict[str, Counter] = {}
        self.series: dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name)
            self.counters[name] = counter
        return counter

    def timeseries(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = TimeSeries(name)
            self.series[name] = series
        return series

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).increment(amount)

    def record(self, name: str, time: float, value: float) -> None:
        self.timeseries(name).record(time, value)

    def merge(self, other: "Monitor") -> None:
        """Fold another monitor's measurements into this one."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, series in other.series.items():
            self.timeseries(name).merge(series)

    def snapshot(self) -> dict:
        """Plain-dict summary useful for result serialization."""
        return {
            "name": self.name,
            "counters": {k: c.value for k, c in self.counters.items()},
            "series": {
                k: {
                    "count": len(s),
                    "mean": s.mean(),
                    "median": s.median(),
                    "min": s.minimum(),
                    "max": s.maximum(),
                }
                for k, s in self.series.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Monitor {self.name!r} counters={len(self.counters)} "
                f"series={len(self.series)}>")
