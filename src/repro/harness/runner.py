"""Unified scenario runner: one execution engine behind every sweep.

The paper's evaluation is a grid of *scenario points* — architecture x
workload x pattern x scale x seed — reduced into figures and tables.  This
module is the single place where that grid is executed:

* :class:`ScenarioPoint` — one picklable unit of work (an
  :class:`~repro.harness.config.ExperimentConfig` plus a series label and
  axis metadata used when reassembling results into sweeps/figures).
* :class:`ScenarioSet` — an ordered point collection with one grid
  builder, :meth:`ScenarioSet.product` (architecture, consumer count and
  any dotted config path as axes), plus the control-plane-only
  :meth:`ScenarioSet.deployments`; point order is deterministic.
* :class:`ExecutionBackend` — how the points run: :class:`SerialBackend`
  (in-process, the reference semantics) or :class:`ProcessPoolBackend`
  (chunked ``multiprocessing``).  Every simulation seeds its own random
  streams from the config, so parallel execution is bit-identical to serial
  for the same seeds; outcomes are always returned in submission order.
  Backends are addressable by *name* through a registry
  (:func:`register_backend` / :func:`resolve_backend`), which is how future
  distributed backends (``"ssh"``, ``"slurm"``) plug in without growing any
  call signature — they must honor the same :class:`ExecutionPolicy`
  contract in their workers.
* :func:`run_scenarios` — the one entry point used by
  :func:`~repro.harness.sweep.run_sweep` (behind every sweep, comparison
  and figure), :func:`~repro.core.study.deployment_comparison` and the
  CLI.  Execution context (backend, cache, policy, progress) is carried
  by a :class:`~repro.harness.session.Session`, the only way to pass it.

Results are cached (:class:`~repro.harness.cache.ResultCache`) and reused:
a session resolves each experiment point at most once, and under a
``Session(cache=...)`` points computed by earlier runs are loaded from
disk instead of re-simulated.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from ..architectures import Testbed, make_architecture
from ..faults import FaultPlan
from ..simkit import Environment
from .config import ExperimentConfig
from .results import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import ResultCache
    from .session import Session

__all__ = [
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
    "BackendFactory",
    "register_backend",
    "unregister_backend",
    "backend_names",
    "create_backend",
    "resolve_backend",
    "run_scenarios",
]

#: ``ScenarioPoint.kind`` values understood by the execution engine.
POINT_KINDS = ("experiment", "deployment")


class ScenarioError(RuntimeError):
    """A scenario point crashed (as opposed to being infeasible).

    Infeasible deployments are *results* (``feasible=False``); this error
    means the simulation itself raised.  Both backends surface it the same
    way: the first failing point in submission order wins.
    """

    def __init__(self, label: str, message: str, attempts: int = 1) -> None:
        noun = "attempt" if attempts == 1 else "attempts"
        super().__init__(f"scenario point {label!r} failed "
                         f"after {attempts} {noun}: {message}")
        self.label = label
        self.attempts = attempts


class PointTimeout(Exception):
    """A scenario point exceeded its :class:`ExecutionPolicy` timeout."""


#: Failure-handling modes understood by :class:`ExecutionPolicy`.
ON_ERROR_MODES = ("raise", "skip", "record")


@dataclass(frozen=True)
class ExecutionPolicy:
    """Per-point fault-tolerance policy, enforced inside the worker.

    The policy is picklable and travels with each point across the process
    boundary, so :class:`SerialBackend` and :class:`ProcessPoolBackend`
    enforce it identically:

    * ``timeout_s`` — wall-clock budget for one attempt.  A point that
      exceeds it is interrupted with :class:`PointTimeout` (via
      ``SIGALRM``; enforcement is skipped when the platform has no alarm
      signal or the attempt runs outside the process's main thread).
    * ``retries`` — extra attempts after the first failure or timeout.
      Every attempt calls :func:`execute_point` afresh, and every
      simulation derives all of its randomness from the point's config, so
      a retried point is bit-identical to one that succeeded first try.
    * ``backoff_s`` — linear backoff: attempt *n* (1-based) waits
      ``backoff_s * n`` seconds before retrying.
    * ``on_error`` — what :func:`run_scenarios` does with a point whose
      attempts are exhausted: ``"raise"`` (the default, and the historical
      behavior) raises :class:`ScenarioError`, ``"skip"`` drops the point
      from the outcomes (submission order of the survivors is preserved),
      ``"record"`` returns a failed :class:`PointOutcome` (``result is
      None``, ``error`` holds the worker traceback).
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.0
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(f"unknown on_error mode {self.on_error!r}; "
                             f"expected one of {ON_ERROR_MODES}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


@dataclass
class ScenarioPoint:
    """One unit of work for the execution engine.

    ``label`` names the series the point belongs to (usually the
    architecture); ``axes`` carries whatever coordinates the caller needs to
    reassemble results (consumer count, workload, sweep variable...).  The
    whole point must be picklable so it can cross a process boundary.
    """

    config: ExperimentConfig
    label: str = ""
    axes: dict = field(default_factory=dict)
    #: "experiment" runs the full measurement; "deployment" deploys the
    #: architecture control-plane only and returns a DeploymentReport.
    kind: str = "experiment"

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.config.architecture
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown point kind {self.kind!r}; "
                             f"expected one of {POINT_KINDS}")

    def cache_key(self) -> str:
        """Stable content hash of the point (config + kind)."""
        canonical = json.dumps({"kind": self.kind,
                                "config": self.config.to_json_dict()},
                               sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

    def describe(self) -> dict:
        info = {"label": self.label, "kind": self.kind, **self.axes}
        info.update(self.config.describe())
        return info


@dataclass
class PointOutcome:
    """A scenario point paired with whatever it produced.

    Under ``ExecutionPolicy(on_error="record")`` a point whose attempts are
    exhausted still yields an outcome: ``result`` is ``None`` and ``error``
    holds the worker's traceback text.  Check :attr:`ok` before touching
    ``result`` when a policy is in play.
    """

    point: ScenarioPoint
    #: ExperimentResult for "experiment" points, DeploymentReport for
    #: "deployment" points; None when the point failed (``error`` is set).
    result: Any
    #: True when the result came from a ResultCache instead of a simulation.
    cached: bool = False
    #: Worker traceback text when the point exhausted its attempts.
    error: Optional[str] = None
    #: How many attempts the point took (1 on first-try success or cache hit).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def _axis_values(name: str, values) -> list:
    """One grid axis as a list; an explicitly empty sequence is an error
    (``seed=[]`` silently falling back to the base seed has bitten real
    sweeps)."""
    values = list(values)
    if not values:
        raise ValueError(f"axis {name!r} is an empty sequence; omit the "
                         f"axis to keep the base config's value")
    return values


def _validate_axis_path(base: ExperimentConfig, path: str) -> None:
    """Check a dotted axis path against the config dataclasses.

    ``testbed.link_bandwidth_bps`` walks ExperimentConfig -> TestbedConfig;
    an unknown segment raises a ValueError naming the valid fields so CLI
    typos fail before any simulation runs.
    """
    obj = base
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not is_dataclass(obj):
            prefix = ".".join(parts[:depth])
            raise ValueError(
                f"invalid axis {path!r}: {prefix!r} is a plain "
                f"{type(obj).__name__} value, not a config object")
        names = {f.name for f in fields(obj)}
        if part not in names:
            raise ValueError(
                f"unknown axis {path!r}: {type(obj).__name__} has no field "
                f"{part!r} (valid fields: {', '.join(sorted(names))})")
        if depth < len(parts) - 1:
            obj = getattr(obj, part)


def _replace_dotted(obj, parts: Sequence[str], value):
    """Functional update of a dotted dataclass path (nested ``replace``)."""
    if len(parts) == 1:
        return replace(obj, **{parts[0]: value})
    child = _replace_dotted(getattr(obj, parts[0]), parts[1:], value)
    return replace(obj, **{parts[0]: child})


def _clean_architecture(base: ExperimentConfig, architecture: str
                        ) -> ExperimentConfig:
    """Move ``base`` to another architecture without leaking options.

    ``base.architecture_options`` travels only with the base's own
    architecture; other points on the axis start from clean options so e.g.
    PRS-specific options cannot mis-configure the MSS/DTS factories.
    """
    options = (dict(base.architecture_options)
               if architecture == base.architecture else {})
    return replace(base, architecture=architecture,
                   architecture_options=options)


class ScenarioSet:
    """An ordered collection of scenario points.

    Order is deterministic and significant: backends return outcomes in
    exactly this order, which is what makes parallel sweeps bit-identical to
    serial ones.
    """

    def __init__(self, points: Iterable[ScenarioPoint] = ()) -> None:
        self._points: list[ScenarioPoint] = list(points)

    # -- collection protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[ScenarioPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> ScenarioPoint:
        return self._points[index]

    @property
    def points(self) -> tuple[ScenarioPoint, ...]:
        return tuple(self._points)

    # -- builders -----------------------------------------------------------
    def add(self, point: ScenarioPoint) -> "ScenarioSet":
        self._points.append(point)
        return self

    def add_config(self, config: ExperimentConfig, *, label: str = "",
                   kind: str = "experiment", **axes) -> "ScenarioSet":
        return self.add(ScenarioPoint(config=config, label=label,
                                      axes=axes, kind=kind))

    def extend(self, points: Iterable[ScenarioPoint]) -> "ScenarioSet":
        self._points.extend(points)
        return self

    def map_configs(self, transform: Callable[[ExperimentConfig],
                                              ExperimentConfig]
                    ) -> "ScenarioSet":
        """Rewrite every point's config through ``transform`` (builder).

        Point order, labels and axes are untouched — this is how derived
        sweeps apply coupled changes a single axis cannot express (e.g.
        rescaling the backbone links along with the access links).
        """
        for point in self._points:
            point.config = transform(point.config)
        return self

    @classmethod
    def product(cls, base: ExperimentConfig, axes: dict, *,
                equal_producers: bool = True) -> "ScenarioSet":
        """Cartesian grid over *arbitrary* config/testbed axes.

        ``axes`` maps axis names to non-empty value sequences.  An axis name
        is either one of two special coordinates —

        * ``"architecture"`` — moves the point to another architecture with
          clean ``architecture_options`` (the base's options travel only
          with the base's own architecture);
        * ``"consumers"`` — applies :meth:`ExperimentConfig.with_consumers`
          so the producer count follows the paper's equal-producers rule
          (disable with ``equal_producers=False``);

        — or a dotted path into the config dataclasses, validated before
        anything runs: ``"seed"``, ``"workload"``, ``"population"``,
        ``"testbed.link_bandwidth_bps"``, ``"testbed.dsn_count"``,
        ``"testbed.ack_policy.mode"``, ...

        Points are ordered architecture-major (when an ``architecture`` axis
        is present), then by the remaining axes in ``axes``' own order,
        rightmost axis fastest — deterministic, so parallel backends stay
        bit-identical to serial.  Every point records its coordinates in
        ``ScenarioPoint.axes`` keyed by the axis names given here.
        """
        if not axes:
            raise ValueError("product needs at least one axis; use "
                             "add_config for a single point")
        names = list(axes)
        if "architecture" in names:  # architecture-major
            names.remove("architecture")
            names.insert(0, "architecture")
        # ``faults.*`` axes need a plan object to walk into: give a
        # fault-free base the inactive default plan (byte-identical to
        # ``faults=None``) so chaos axes sweep like any other dotted path.
        if base.faults is None and any(
                name.split(".", 1)[0] == "faults" for name in names):
            base = replace(base, faults=FaultPlan())
        ordered: dict[str, list] = {}
        for name in names:
            values = axes[name]
            if values is None:
                raise ValueError(f"axis {name!r} is None; omit the axis to "
                                 f"keep the base config's value")
            ordered[name] = _axis_values(name, values)
            if name not in ("architecture", "consumers"):
                _validate_axis_path(base, name)
        scenarios = cls()
        for combo in itertools.product(*ordered.values()):
            coords = dict(zip(ordered, combo))
            config = base
            if "architecture" in coords:
                config = _clean_architecture(config, coords["architecture"])
            # Plain fields before the consumer coordinate: with_consumers
            # reads the (possibly swept) pattern to decide producer counts.
            for name, value in coords.items():
                if name in ("architecture", "consumers"):
                    continue
                config = _replace_dotted(config, name.split("."), value)
            if "consumers" in coords:
                config = config.with_consumers(
                    coords["consumers"], equal_producers=equal_producers)
            scenarios.add(ScenarioPoint(config=config,
                                        label=config.architecture,
                                        axes=coords))
        return scenarios

    @classmethod
    def deployments(cls, architectures: Sequence[str],
                    base: Optional[ExperimentConfig] = None) -> "ScenarioSet":
        """Control-plane-only deployment points (the Table comparison)."""
        scenarios = cls()
        base = base or ExperimentConfig()
        for offset, label in enumerate(dict.fromkeys(architectures)):
            config = replace(_clean_architecture(base, label),
                             seed=base.seed + offset)
            scenarios.add_config(config, label=label, kind="deployment")
        return scenarios


# ---------------------------------------------------------------------------
# Point execution (shared by every backend; must be picklable, hence
# module-level).
# ---------------------------------------------------------------------------

def execute_point(point: ScenarioPoint) -> Any:
    """Run one scenario point to completion in the current process."""
    if point.kind == "deployment":
        config = point.config
        env = Environment()
        testbed = Testbed(env, replace(config.testbed, seed=config.seed))
        architecture = make_architecture(config.architecture, testbed,
                                         **config.architecture_options)
        env.run(until=env.process(architecture.deploy()))
        return architecture.deployment_report()
    from .experiment import Experiment
    return Experiment(point.config).run()


def _call_with_timeout(point: ScenarioPoint,
                       timeout_s: Optional[float]) -> Any:
    """Run one attempt, interrupted by SIGALRM once ``timeout_s`` elapses.

    Alarm-based enforcement needs the process's main thread and a platform
    with ``SIGALRM`` (pool workers and the serial backend both qualify on
    POSIX); anywhere else the attempt runs unbounded rather than crashing.

    A pre-existing ``ITIMER_REAL`` (an outer timeout wrapping the whole
    sweep, say) is suspended for the attempt and re-armed with its
    remaining time on the way out, so nested timeouts compose instead of
    the inner one silently disarming the outer.
    """
    if (timeout_s is None or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return execute_point(point)

    running = True

    def _on_alarm(signum, frame):
        # The alarm can fire in the gap between execute_point returning and
        # the timer being cleared below; a completed attempt must not be
        # reclassified as a timeout.
        if running:
            raise PointTimeout(
                f"scenario point {point.label!r} exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.setitimer(signal.ITIMER_REAL,
                                                   timeout_s)
    started = time.monotonic()
    try:
        result = execute_point(point)
        running = False
        return result
    finally:
        # Quiesce our timer before swapping the handler back, then re-arm
        # any pre-existing ITIMER_REAL with its *remaining* time (the old
        # code zeroed it, silently disarming an outer timeout).  An outer
        # timer that expired while we ran is re-armed with a near-zero
        # delay so its handler still fires, just late.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6),
                             outer_interval)


def _attempt_point(point: ScenarioPoint,
                   policy: Optional[ExecutionPolicy]
                   ) -> tuple[bool, Any, int]:
    """Run a point under a policy: (ok, result-or-traceback, attempts)."""
    max_attempts = policy.max_attempts if policy is not None else 1
    timeout_s = policy.timeout_s if policy is not None else None
    last_failure = ""
    for attempt in range(1, max_attempts + 1):
        if attempt > 1 and policy is not None and policy.backoff_s:
            time.sleep(policy.backoff_s * (attempt - 1))
        try:
            return True, _call_with_timeout(point, timeout_s), attempt
        except Exception:  # noqa: BLE001 - reported to the parent
            last_failure = traceback.format_exc()
    return False, last_failure, max_attempts


def _execute_indexed(
        item: tuple[int, ScenarioPoint, Optional[ExecutionPolicy]]
        ) -> tuple[int, bool, Any, int]:
    """Pool worker: never lets an exception escape (it would lose ordering);
    failures travel back as (index, False, traceback-text, attempts) and are
    handled by the parent in submission order per the policy's on_error."""
    index, point, policy = item
    ok, value, attempts = _attempt_point(point, policy)
    return index, ok, value, attempts


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

#: Per-completed-point callback: (index-into-submitted-points, ok, value,
#: attempts), invoked in *completion* order in the parent process.
ResultCallback = Callable[[int, bool, Any, int], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """How a list of scenario points gets executed.

    ``run`` returns one ``(ok, value, attempts)`` triple per point, *in
    point order*; ``value`` is the point's result when ``ok`` is true and
    the worker's traceback text otherwise.  Implementations must preserve
    ordering — the reassembly code in sweeps and figures depends on it.
    ``policy`` (an :class:`ExecutionPolicy`) governs per-point timeout and
    retries inside the worker.

    ``progress`` timing is backend-defined: the serial backend calls it just
    before each point starts (submission order); the process pool calls it
    as each point completes (completion order).  ``on_result`` fires in the
    parent process as each point finishes (completion order) — it is how
    :func:`run_scenarios` persists results incrementally, so a killed sweep
    leaves its completed points on disk.  Callbacks must not rely on either
    timing for correctness.
    """

    def run(self, points: Sequence[ScenarioPoint],
            progress: Optional[Callable[[ScenarioPoint], None]] = None, *,
            policy: Optional[ExecutionPolicy] = None,
            on_result: Optional[ResultCallback] = None
            ) -> list[tuple[bool, Any, int]]:
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Reference backend: run every point in-process, one after another."""

    def run(self, points: Sequence[ScenarioPoint],
            progress: Optional[Callable[[ScenarioPoint], None]] = None, *,
            policy: Optional[ExecutionPolicy] = None,
            on_result: Optional[ResultCallback] = None
            ) -> list[tuple[bool, Any, int]]:
        outcomes: list[tuple[bool, Any, int]] = []
        for index, point in enumerate(points):
            if progress is not None:
                progress(point)
            ok, value, attempts = _attempt_point(point, policy)
            outcomes.append((ok, value, attempts))
            if on_result is not None:
                on_result(index, ok, value, attempts)
        return outcomes


class ProcessPoolBackend:
    """Chunked multiprocessing backend.

    Points are distributed over ``jobs`` worker processes; results are
    reassembled into submission order, so for the same seeds the output is
    bit-identical to :class:`SerialBackend` (each simulation derives all of
    its randomness from the point's config, never from process state).
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 chunksize: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        self.jobs = jobs or os.cpu_count() or 1
        self.chunksize = chunksize
        self.start_method = start_method

    def _chunksize(self, total: int) -> int:
        if self.chunksize is not None:
            return max(1, self.chunksize)
        # ~4 chunks per worker balances load without drowning in IPC.
        return max(1, total // (self.jobs * 4) or 1)

    def run(self, points: Sequence[ScenarioPoint],
            progress: Optional[Callable[[ScenarioPoint], None]] = None, *,
            policy: Optional[ExecutionPolicy] = None,
            on_result: Optional[ResultCallback] = None
            ) -> list[tuple[bool, Any, int]]:
        if not points:
            return []
        if self.jobs <= 1 or len(points) == 1:
            return SerialBackend().run(points, progress, policy=policy,
                                       on_result=on_result)
        context = (multiprocessing.get_context(self.start_method)
                   if self.start_method else multiprocessing.get_context())
        slots: list[Optional[tuple[bool, Any, int]]] = [None] * len(points)
        with context.Pool(processes=min(self.jobs, len(points))) as pool:
            indexed = [(index, point, policy)
                       for index, point in enumerate(points)]
            for index, ok, value, attempts in pool.imap_unordered(
                    _execute_indexed, indexed,
                    chunksize=self._chunksize(len(points))):
                slots[index] = (ok, value, attempts)
                # Persist before the user callback: a progress hook that
                # raises (or a Ctrl-C landing there) must not lose results.
                if on_result is not None:
                    on_result(index, ok, value, attempts)
                if progress is not None:
                    progress(points[index])
        return [slot for slot in slots if slot is not None]


# ---------------------------------------------------------------------------
# Named-backend registry
# ---------------------------------------------------------------------------

#: A backend factory takes ``jobs`` (worker count or None) and returns a
#: ready :class:`ExecutionBackend`.
BackendFactory = Callable[..., ExecutionBackend]

_BACKEND_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, *,
                     overwrite: bool = False) -> None:
    """Register a backend factory under a name usable everywhere a backend
    is accepted (``Session(backend="process")``, ``--backend process``,
    :func:`resolve_backend`).

    ``factory`` is called as ``factory(jobs=N_or_None)`` and must return an
    object satisfying the :class:`ExecutionBackend` protocol *and* the
    :class:`ExecutionPolicy` contract (per-point timeout/retry enforced in
    its workers, outcomes in submission order) — that contract, not the
    transport, is what makes a backend a drop-in registry entry; future
    distributed backends (``"ssh"``, ``"slurm"``) register here instead of
    adding kwargs to every entry point.  Re-registering an existing name
    raises unless ``overwrite=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if name in _BACKEND_REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered; pass "
                         f"overwrite=True to replace it")
    _BACKEND_REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend name (unknown names are a no-op)."""
    _BACKEND_REGISTRY.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKEND_REGISTRY))


def create_backend(name: str, *, jobs: Optional[int] = None
                   ) -> ExecutionBackend:
    """Build a backend from its registered name."""
    try:
        factory = _BACKEND_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}") from None
    backend = factory(jobs=jobs)
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(f"backend factory {name!r} returned "
                        f"{type(backend).__name__}, which does not "
                        f"implement the ExecutionBackend protocol")
    return backend


register_backend("serial", lambda jobs=None: SerialBackend())
register_backend("process", lambda jobs=None: ProcessPoolBackend(jobs))


def resolve_backend(backend: Union[ExecutionBackend, str, None] = None,
                    jobs: Optional[int] = None) -> ExecutionBackend:
    """Pick a backend: an explicit instance wins, a registry name is built
    with ``jobs``, then ``jobs > 1`` => process pool, else serial."""
    if isinstance(backend, str):
        return create_backend(backend, jobs=jobs)
    if backend is not None:
        return backend
    if jobs is not None and jobs > 1:
        return ProcessPoolBackend(jobs)
    return SerialBackend()


# ---------------------------------------------------------------------------
# The one entry point
# ---------------------------------------------------------------------------

def run_scenarios(scenarios: Iterable[ScenarioPoint], *,
                  session: Optional["Session"] = None,
                  progress: Optional[Callable[[ScenarioPoint], None]] = None
                  ) -> list[PointOutcome]:
    """Execute scenario points and return outcomes in submission order.

    ``session`` (a :class:`~repro.harness.session.Session`) carries the
    whole execution context — backend, result cache, execution policy and a
    default progress callback; ``None`` means a fresh ``Session()`` (serial,
    fail-fast, results kept in memory for this call only).  A closed
    session is refused with :class:`RuntimeError`.

    Every "experiment" point is loaded from and stored to the session's
    ``point_cache`` (its disk cache, else its memory-only cache), so a
    point the session has already resolved is not simulated again and
    fires no progress.  Failed points are never stored.  Fresh results
    are persisted *as they complete* (not just at the end), so a sweep
    killed midway can be resumed from the points on disk.

    The session's policy (an :class:`ExecutionPolicy`) adds per-point
    timeout and retries, and chooses what exhausted points become: with
    ``on_error="raise"`` (the default, and the behavior without a policy)
    the first failure in submission order raises :class:`ScenarioError`
    regardless of backend; ``"skip"`` drops failed points, keeping the
    survivors in submission order; ``"record"`` returns them as failed
    :class:`PointOutcome` objects (``result=None``, ``error`` set).
    """
    from .session import Session
    if session is None:
        session = Session()
    elif session.closed:
        raise RuntimeError("run_scenarios() got a closed session; build a "
                           "new Session (or run before leaving the with "
                           "block)")
    backend = session.backend
    cache = session.point_cache
    policy = session.policy
    if progress is None:
        progress = session.progress
    points = list(scenarios)
    on_error = policy.on_error if policy is not None else "raise"

    outcomes: list[Optional[PointOutcome]] = [None] * len(points)
    pending: list[tuple[int, ScenarioPoint]] = []
    for index, point in enumerate(points):
        cached = cache.load(point) if point.kind == "experiment" else None
        if cached is not None:
            outcomes[index] = PointOutcome(point=point, result=cached,
                                           cached=True)
        else:
            pending.append((index, point))

    failure: Optional[ScenarioError] = None
    if pending:
        pending_points = [point for _, point in pending]

        def persist(local_index: int, ok: bool, value: Any,
                    attempts: int) -> None:
            point = pending_points[local_index]
            if ok and point.kind == "experiment":
                cache.store(point, value)
                cache.maybe_save()

        executed = backend.run(pending_points, progress, policy=policy,
                               on_result=persist)
        # Every completed result is already persisted (incrementally, via
        # the on_result callback), so one crashed point does not discard
        # the rest of a long sweep's work even under on_error="raise".
        for (index, point), (ok, value, attempts) in zip(pending, executed):
            if not ok:
                if on_error == "record":
                    outcomes[index] = PointOutcome(
                        point=point, result=None, error=value,
                        attempts=attempts)
                elif on_error == "raise" and failure is None:
                    failure = ScenarioError(point.label, value, attempts)
                continue
            outcomes[index] = PointOutcome(point=point, result=value,
                                           attempts=attempts)
    cache.save()
    if failure is not None:
        raise failure
    return [outcome for outcome in outcomes if outcome is not None]
