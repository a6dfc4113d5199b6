"""Deterministic fault injection (chaos axes) for the streaming simulator.

``repro.faults`` adds a robustness dimension the paper never tests: every
:class:`~repro.harness.config.ExperimentConfig` can carry a
:class:`FaultPlan` whose primary axes (``faults.broker_kill_rate``,
``faults.link_flap``, ``faults.link_degradation``,
``faults.consumer_churn``, ``faults.slow_consumer``) sweep like any other
dotted grid coordinate through :meth:`ScenarioSet.product
<repro.harness.runner.ScenarioSet.product>` and
:func:`~repro.harness.sweep.run_sweep`.

Determinism contract: plans expand into :class:`FaultSpec` schedules using
derived RNG streams only (``streams.stream("faults", <kind>)``), one stream
per fault kind, so chaos runs are bit-reproducible and byte-identical
across the serial and process backends — and ``faults=None`` (or the
inactive all-zero plan) is the *exact* pre-fault code path, preserving the
committed golden digests.
"""

from .injector import FaultInjector
from .spec import FAULT_AXES, FAULT_KINDS, FaultPlan, FaultSpec

__all__ = ["FaultPlan", "FaultSpec", "FaultInjector",
           "FAULT_AXES", "FAULT_KINDS"]
