"""Experiment configuration.

An :class:`ExperimentConfig` is the single description of one measurement
point: which architecture, workload and messaging pattern to run, how many
producers/consumers, how many messages, how many repeated runs to average
(the paper uses three), and the testbed parameters.

The paper streams up to 128K messages per run on real hardware; the
simulated default is much smaller so a full figure sweep finishes in
seconds — pass ``messages_per_producer`` explicitly to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import Optional

from ..amqp import AckPolicy
from ..architectures import ARCHITECTURES, TestbedConfig
from ..faults import FaultPlan
from ..workloads import WORKLOADS

__all__ = ["ExperimentConfig", "PATTERN_NAMES"]

#: Messaging patterns implemented by :mod:`repro.patterns`.
PATTERN_NAMES = ("work_sharing", "work_sharing_feedback", "broadcast", "broadcast_gather")

_LEAF_TYPES = (str, int, float, bool, type(None))


@cache
def _field_names(cls: type) -> Optional[tuple[str, ...]]:
    """A dataclass's field names (``None`` for any other class)."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _plain(value):
    """``dataclasses.asdict`` of ``value`` without deep-copying its leaves.

    Dataclasses become dicts in field order, and dicts, lists and tuples are
    rebuilt around their converted items, exactly as ``asdict`` does; leaves
    are shared, not copied.  Every cache key is hashed from this, so it
    must keep producing the same JSON text as ``asdict``.
    """
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    names = _field_names(cls)
    if names is not None:
        return {name: _plain(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if cls in (list, tuple):
        return cls(_plain(item) for item in value)
    return value


@dataclass
class ExperimentConfig:
    """One experiment point (architecture x workload x pattern x scale)."""

    architecture: str = "DTS"
    workload: str = "Dstream"
    pattern: str = "work_sharing"
    num_producers: int = 1
    num_consumers: int = 1
    #: Messages each producer publishes per run.
    messages_per_producer: int = 50
    #: Clients each producer endpoint stands for (aggregate-client
    #: populations): every producer process emits aggregate messages of this
    #: multiplicity, so a point simulates ``num_producers * population``
    #: logical clients at O(num_producers) cost.  1 = discrete clients
    #: (bit-identical to the historical behaviour).
    population: int = 1
    #: Independent repetitions averaged into the reported point (§5.2: three).
    runs: int = 1
    #: Root random seed; each run derives its own seed from it.
    seed: int = 1
    #: Number of shared work queues for the work-sharing patterns (§5.2: two).
    work_queue_count: int = 2
    #: Pace producers at the workload's nominal data rate instead of full speed.
    rate_limited: bool = False
    #: Let Deleria-style workloads vary events/message (evaluation default: fixed).
    vary_events: bool = False
    #: Per-message consumer compute time (0 = pure forwarding benchmark).
    consumer_processing_time_s: float = 0.0
    #: Request/reply window per producer in the feedback and gather patterns:
    #: a producer stops publishing while this many requests await replies
    #: (0 = unlimited; real master-worker clients always bound this).
    max_outstanding_requests: int = 50
    #: Abort a run after this much simulated time even if targets are unmet.
    max_sim_time_s: float = 3600.0
    #: Testbed parameters (link speeds, pool sizes, ack policy...).
    testbed: TestbedConfig = field(default_factory=TestbedConfig)
    #: Fault-injection plan (chaos axes); ``None`` — and the inactive
    #: all-zero :class:`~repro.faults.FaultPlan` — is the exact pre-fault
    #: code path (golden-digest contract).
    faults: Optional[FaultPlan] = None
    #: Extra keyword arguments forwarded to the architecture factory.
    architecture_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}; "
                             f"expected one of {sorted(ARCHITECTURES)}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             f"expected one of {sorted(WORKLOADS)}")
        if self.pattern not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern {self.pattern!r}; "
                             f"expected one of {PATTERN_NAMES}")
        if self.num_producers < 1 or self.num_consumers < 1:
            raise ValueError("producer/consumer counts must be >= 1")
        if self.messages_per_producer < 1:
            raise ValueError("messages_per_producer must be >= 1")
        if self.population < 1:
            raise ValueError(
                f"population must be >= 1, got {self.population}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.runs >= 1000:
            # run_seed derives per-run seeds as seed * 1000 + run_index, so
            # 1000+ runs would collide with the next root seed's stream.
            raise ValueError("runs must be < 1000 (the run_seed derivation "
                             "reserves 1000 run slots per root seed)")
        if self.work_queue_count < 1:
            raise ValueError("work_queue_count must be >= 1")
        if self.pattern in ("broadcast", "broadcast_gather") and self.num_producers != 1:
            raise ValueError("broadcast patterns use exactly one producer (§5.5)")

    # -- derived quantities -----------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Logical messages published per run (before any fan-out)."""
        return self.num_producers * self.messages_per_producer * self.population

    @property
    def total_clients(self) -> int:
        """Logical producer clients the point simulates."""
        return self.num_producers * self.population

    def with_consumers(self, consumers: int, *,
                       equal_producers: bool = True) -> "ExperimentConfig":
        """Copy of this config at a different consumer count (for sweeps)."""
        producers = self.num_producers
        if equal_producers and self.pattern not in ("broadcast", "broadcast_gather"):
            producers = consumers
        return replace(self, num_consumers=consumers, num_producers=producers)

    def with_architecture(self, label: str, **options) -> "ExperimentConfig":
        merged = dict(self.architecture_options)
        merged.update(options)
        return replace(self, architecture=label, architecture_options=merged)

    def run_seed(self, run_index: int) -> int:
        """Derived seed for one run: ``seed * 1000 + run_index``.

        This is the determinism contract for the whole runner: every run of
        every point seeds its random streams from this value alone, so
        retries and parallel execution are bit-identical to a clean serial
        run.  Each root seed owns the 1000 run slots ``[seed*1000, (seed+1)
        *1000)``; ``__post_init__`` rejects ``runs >= 1000`` so distinct
        root seeds can never collide on a derived seed.
        """
        return self.seed * 1000 + run_index

    # -- serialization -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Plain-JSON representation; inverse of :meth:`from_json_dict`."""
        return _plain(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        testbed = dict(payload.get("testbed") or {})
        if "ack_policy" in testbed:
            testbed["ack_policy"] = AckPolicy(**testbed["ack_policy"])
        payload["testbed"] = TestbedConfig(**testbed)
        faults = payload.get("faults")
        if faults is not None:
            payload["faults"] = FaultPlan(**faults)
        return cls(**payload)

    def describe(self) -> dict:
        info = {
            "architecture": self.architecture,
            "workload": self.workload,
            "pattern": self.pattern,
            "producers": self.num_producers,
            "consumers": self.num_consumers,
            "messages_per_producer": self.messages_per_producer,
            "population": self.population,
            "runs": self.runs,
            "seed": self.seed,
        }
        # Fault coordinates appear only when a plan is present, so
        # fault-free descriptions (and the tables built from them) keep
        # their historical columns.
        if self.faults is not None:
            for axis, value in self.faults.describe().items():
                info[f"faults.{axis}"] = value
        return info
