"""A small, dependency-free discrete-event simulation engine.

``repro.simkit`` provides the generator-based simulation kernel on top of
which the whole cross-facility streaming reproduction is built: simulated
time, processes, shared resources, object stores, deterministic random
streams and measurement monitors.

Quick example::

    from repro.simkit import Environment

    def ping(env, period):
        while True:
            yield env.timeout(period)
            print("ping at", env.now)

    env = Environment()
    env.process(ping(env, 1.0))
    env.run(until=3.5)
"""

from .core import AllOf, AnyOf, Condition, Environment, Event, Process, Timeout
from .errors import Interrupt, ResourceError, SchedulingError, SimkitError
from .monitor import Counter, Monitor, TimeSeries
from .rand import BatchedUniform, RandomStreams, derive_seed
from .resources import (
    Container,
    FilterStore,
    HandoffServer,
    PriorityResource,
    Resource,
    Store,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimkitError",
    "SchedulingError",
    "ResourceError",
    "Resource",
    "PriorityResource",
    "HandoffServer",
    "Container",
    "Store",
    "FilterStore",
    "Counter",
    "TimeSeries",
    "Monitor",
    "RandomStreams",
    "BatchedUniform",
    "derive_seed",
]
