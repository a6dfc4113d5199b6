"""StreamSim-equivalent experiment harness: configs, coordinator, runner,
sessions, sweeps and result containers.

Everything that "runs many experiment points" — consumer sweeps,
architecture comparisons, figure regeneration, the CLI — goes through the
unified scenario runner in :mod:`repro.harness.runner`, and every grid of
experiment outcomes is collected by :func:`~repro.harness.sweep.run_sweep`
into one coordinate-keyed :class:`~repro.harness.sweep.SweepResult`.  Execution context
(backend, result cache, execution policy, progress) travels as one
:class:`~repro.harness.session.Session` object: build it once (directly,
from ``REPRO_*`` environment variables via :meth:`Session.from_env`, or
from CLI args via :meth:`Session.from_args`) and pass ``session=`` to any
entry point.
"""

from .cache import ResultCache, code_fingerprint, shard_lock
from .cache_admin import (
    CacheStats,
    CompactReport,
    GCReport,
    collect_stats,
    compact_cache,
    gc_cache,
)
from .config import PATTERN_NAMES, ExperimentConfig
from .coordinator import Coordinator
from .experiment import Experiment, run_experiment
from .results import ExperimentResult, PointFailure, RunResult
from .runner import (
    BACKEND_NAMES,
    ON_ERROR_MODES,
    ExecutionBackend,
    ExecutionPolicy,
    PointOutcome,
    PointTimeout,
    ProcessPoolBackend,
    ScenarioError,
    ScenarioPoint,
    ScenarioSet,
    SerialBackend,
    resolve_backend,
    run_scenarios,
)
from .session import ENV_PREFIX, Session
from .sweep import (
    PAPER_CONSUMER_COUNTS,
    SweepResult,
    run_sweep,
    scale_link_tiers,
)

__all__ = [
    "ExperimentConfig",
    "PATTERN_NAMES",
    "Coordinator",
    "Experiment",
    "run_experiment",
    "RunResult",
    "ExperimentResult",
    "PointFailure",
    "SweepResult",
    "run_sweep",
    "scale_link_tiers",
    "PAPER_CONSUMER_COUNTS",
    "ScenarioPoint",
    "ScenarioSet",
    "PointOutcome",
    "ScenarioError",
    "PointTimeout",
    "ExecutionPolicy",
    "ON_ERROR_MODES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "resolve_backend",
    "run_scenarios",
    "Session",
    "ENV_PREFIX",
    "ResultCache",
    "code_fingerprint",
    "shard_lock",
    "CacheStats",
    "CompactReport",
    "GCReport",
    "collect_stats",
    "gc_cache",
    "compact_cache",
]
