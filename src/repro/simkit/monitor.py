"""Lightweight instrumentation for simulated components.

A :class:`Counter` is a monotonically increasing count (messages
published, messages consumed, bytes transferred, rejected publishes), and
a :class:`Monitor` groups one component's named counters.  No simulated
element records a time series per message: the per-hop latency that
results report comes from the per-kind hop totals each message carries
(see :meth:`~repro.netsim.message.Message.record_hop`).

Counters sit on the per-message hot path, so they are ``__slots__``
objects, and hot call sites look up their :class:`Counter` once
(``monitor.counter(name)``) and keep the returned object, rather than
paying the name lookup per message.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Counter", "Monitor"]


@dataclass(slots=True)
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a separate counter")
        self.value += amount


class Monitor:
    """Named collection of counters for one component."""

    __slots__ = ("name", "counters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name)
            self.counters[name] = counter
        return counter

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).increment(amount)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Monitor {self.name!r} counters={len(self.counters)}>"
