"""Fault-plan and fault-event dataclasses.

A :class:`FaultPlan` is the *sweepable* description of the chaos applied to
one experiment point: five primary axes (kill rates, link weather, consumer
churn, slow consumers) plus the secondary knobs that shape each fault
(downtimes, weather windows, scheduling horizon).  Plans are frozen,
picklable and JSON round-trippable so they ride on
:class:`~repro.harness.config.ExperimentConfig` through every execution
backend and the result cache.

A :class:`FaultSpec` is one *concrete scheduled event* — "kill broker rmqs2
at t=1.37 s for 1.0 s" — expanded deterministically from a plan by
:meth:`FaultPlan.expand` using derived RNG streams
(``streams.stream("faults", <kind>)``).  Each fault kind draws from its own
stream, so enabling one axis never shifts another axis' draws and a chaos
sweep stays bit-reproducible across the serial and process backends.

Rate semantics: each ``*_rate``-style axis is the **expected number of
events over the plan's** ``horizon_s`` (integer parts are exact, the
fractional part is realized as a Bernoulli draw), with event times uniform
over ``[0, horizon_s)`` relative to measurement start.  ``slow_consumer``
and ``link_degradation`` are *levels*, not rates: extra seconds of
per-message compute and the fractional bandwidth lost during weather
windows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS", "FAULT_AXES"]

#: Event kinds produced by :meth:`FaultPlan.expand`.
FAULT_KINDS = ("broker_kill", "link_flap", "link_degradation",
               "consumer_churn", "slow_consumer")

#: The sweepable primary axes (``faults.<axis>`` dotted grid paths).
FAULT_AXES = ("broker_kill_rate", "link_flap", "link_degradation",
              "consumer_churn", "slow_consumer")


@dataclass(frozen=True)
class FaultSpec:
    """One concrete scheduled fault event."""

    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: Injection time relative to measurement start (seconds).
    time_s: float
    #: Target identifier: broker name, link name, or consumer index (as a
    #: string); empty for cluster-wide events such as weather windows.
    target: str = ""
    #: How long the fault lasts before the injector undoes it (seconds);
    #: 0 for permanent effects (slow consumers stay slow).
    duration_s: float = 0.0
    #: Fault magnitude for level-style kinds (degradation fraction, extra
    #: processing seconds); 0 for on/off kinds.
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.time_s < 0 or self.duration_s < 0:
            raise ValueError("fault time and duration must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic chaos description for one experiment point.

    The default plan is **inactive**: every primary axis is zero, no RNG
    stream is ever opened and no simkit event is scheduled, so
    ``FaultPlan()`` is byte-identical to ``faults=None`` (the golden-digest
    contract).
    """

    # -- primary sweepable axes (``faults.<name>`` grid paths) ------------
    #: Expected broker kills over the horizon (each kill lasts
    #: ``broker_downtime_s``; the cluster re-leaders the victim's queues).
    broker_kill_rate: float = 0.0
    #: Expected link flaps over the horizon (each takes one link down for
    #: ``link_downtime_s``; queued frames wait out the outage).
    link_flap: float = 0.0
    #: Fractional bandwidth lost on every link during periodic weather
    #: windows (0 = clear skies, 0.5 = half the capacity).
    link_degradation: float = 0.0
    #: Expected consumer churn events over the horizon (each suspends one
    #: consumer's subscriptions — requeueing its unacked deliveries — for
    #: ``consumer_downtime_s``, then resubscribes).
    consumer_churn: float = 0.0
    #: Extra per-message processing seconds applied to
    #: ``slow_consumer_count`` victim consumers at measurement start.
    slow_consumer: float = 0.0

    # -- secondary knobs ---------------------------------------------------
    #: Window after measurement start (deployment end) within which fault
    #: events are scheduled.  Full-speed streaming drains small message
    #: batches in tens of *milliseconds* of simulated time, so the default
    #: horizon is sized to that active window — raise it for long
    #: rate-limited or large-batch runs.
    horizon_s: float = 0.05
    #: How long a killed broker stays down before it recovers.  Producers
    #: ride out the outage on their publish-retry backoff (budget ~2.3 s),
    #: so the run completes and the stall shows up as degraded throughput.
    broker_downtime_s: float = 0.2
    #: How long a flapped link stays down.
    link_downtime_s: float = 0.05
    #: Weather cycle: every ``weather_period_s`` a degradation window of
    #: ``weather_window_s`` opens (deterministic, no RNG).
    weather_period_s: float = 0.02
    weather_window_s: float = 0.01
    #: How long a churned consumer stays unsubscribed.
    consumer_downtime_s: float = 0.05
    #: Number of consumers slowed by the ``slow_consumer`` axis.
    slow_consumer_count: int = 1

    def __post_init__(self) -> None:
        for name in ("broker_kill_rate", "link_flap", "consumer_churn",
                     "slow_consumer"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.link_degradation < 1.0:
            raise ValueError("link_degradation must be in [0, 1)")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        for name in ("broker_downtime_s", "link_downtime_s",
                     "consumer_downtime_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.weather_period_s <= 0:
            raise ValueError("weather_period_s must be positive")
        if not 0.0 <= self.weather_window_s <= self.weather_period_s:
            raise ValueError("weather_window_s must be in "
                             "[0, weather_period_s]")
        if self.slow_consumer_count < 1:
            raise ValueError("slow_consumer_count must be >= 1")

    # -- introspection -----------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any primary axis would inject anything at all."""
        return any(getattr(self, name) > 0 for name in FAULT_AXES)

    def describe(self) -> dict:
        """Compact ``axis -> value`` dict of the non-zero primary axes."""
        return {name: getattr(self, name) for name in FAULT_AXES
                if getattr(self, name) > 0}

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultPlan":
        return cls(**payload)

    # -- schedule expansion ------------------------------------------------
    def expand(self, streams, *, brokers: Sequence[str],
               links: Sequence[str], consumers: int) -> list["FaultSpec"]:
        """Realize this plan into a sorted, deterministic event schedule.

        ``streams`` is the testbed's
        :class:`~repro.simkit.rand.RandomStreams`; every fault kind draws
        from its own derived stream (``streams.stream("faults", kind)``) so
        the schedule for one axis is independent of every other axis'
        setting.  Targets are chosen by integer draws over the *sorted*
        candidate listings, which makes the schedule a pure function of
        ``(seed, plan, topology)`` — the cross-backend byte-identity
        contract.  An inactive plan opens no stream and returns ``[]``.
        """
        if not self.active:
            return []
        specs: list[FaultSpec] = []
        if self.broker_kill_rate > 0 and brokers:
            rng = streams.stream("faults", "broker_kill")
            broker_names = sorted(brokers)
            for time_s in _event_times(rng, self.broker_kill_rate,
                                       self.horizon_s):
                target = broker_names[int(rng.integers(0, len(broker_names)))]
                specs.append(FaultSpec("broker_kill", time_s, target,
                                       self.broker_downtime_s))
        if self.link_flap > 0 and links:
            rng = streams.stream("faults", "link_flap")
            link_names = sorted(links)
            for time_s in _event_times(rng, self.link_flap, self.horizon_s):
                target = link_names[int(rng.integers(0, len(link_names)))]
                specs.append(FaultSpec("link_flap", time_s, target,
                                       self.link_downtime_s))
        if self.link_degradation > 0:
            # Deterministic periodic weather windows; no RNG involved.
            start = 0.0
            while start < self.horizon_s:
                specs.append(FaultSpec("link_degradation", start,
                                       duration_s=self.weather_window_s,
                                       value=self.link_degradation))
                start += self.weather_period_s
        if self.consumer_churn > 0 and consumers > 0:
            rng = streams.stream("faults", "consumer_churn")
            for time_s in _event_times(rng, self.consumer_churn,
                                       self.horizon_s):
                target = str(int(rng.integers(0, consumers)))
                specs.append(FaultSpec("consumer_churn", time_s, target,
                                       self.consumer_downtime_s))
        if self.slow_consumer > 0 and consumers > 0:
            rng = streams.stream("faults", "slow_consumer")
            count = min(self.slow_consumer_count, consumers)
            victims = [int(i) for i in rng.permutation(consumers)[:count]]
            for victim in sorted(victims):
                specs.append(FaultSpec("slow_consumer", 0.0, str(victim),
                                       value=self.slow_consumer))
        specs.sort(key=lambda s: (s.time_s, s.kind, s.target))
        return specs


def _event_times(rng, rate: float, horizon_s: float) -> list[float]:
    """Realize an expected event count into sorted times over the horizon.

    Integer parts of ``rate`` are exact (rate=2 always fires twice); the
    fractional part becomes one Bernoulli draw, so integer-valued sweeps
    produce exact monotone event counts.
    """
    count = int(rate)
    fraction = rate - count
    if fraction > 0.0 and float(rng.uniform(0.0, 1.0)) < fraction:
        count += 1
    return sorted(float(rng.uniform(0.0, horizon_s)) for _ in range(count))
