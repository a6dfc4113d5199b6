"""Exception types used by the :mod:`repro.simkit` discrete-event engine.

The engine deliberately keeps its error taxonomy small: scheduling errors
(a negative delay, triggering an event twice, running until a time in the
past) and the control-flow exception that ends a run.
"""

from __future__ import annotations

__all__ = [
    "SimkitError",
    "SchedulingError",
    "StopSimulation",
]


class SimkitError(Exception):
    """Base class for all simulation-engine errors."""


class SchedulingError(SimkitError):
    """Raised when an event is scheduled incorrectly.

    Typical causes: a negative delay, triggering an already-triggered event,
    or adding a callback to an event that has already been processed.
    """


class StopSimulation(SimkitError):
    """Internal control-flow exception used by :meth:`Environment.run`.

    Raised when the ``until`` event of a run triggers; user code should never
    need to catch it.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value
