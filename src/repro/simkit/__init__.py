"""A small, dependency-free discrete-event simulation engine.

``repro.simkit`` provides the generator-based simulation kernel on top of
which the whole cross-facility streaming reproduction is built: simulated
time, processes, a first-of wait, FIFO resources, hop servers, mailboxes,
deterministic random streams and counters.

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

from .core import AnyOf, Environment, Event, Process, Timeout
from .errors import SchedulingError, SimkitError
from .monitor import Counter, Monitor
from .rand import BatchedUniform, RandomStreams, derive_seed
from .resources import HandoffServer, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AnyOf",
    "SimkitError",
    "SchedulingError",
    "Resource",
    "HandoffServer",
    "Store",
    "Counter",
    "Monitor",
    "RandomStreams",
    "BatchedUniform",
    "derive_seed",
]
