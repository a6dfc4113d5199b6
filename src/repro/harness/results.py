"""Result containers for single runs and averaged experiments.

Both containers round-trip through pickle (they are plain dataclasses) and
through JSON via ``to_json_dict`` / ``from_json_dict`` so sweep results can
be cached to disk and reused by figure regeneration (see
:mod:`repro.harness.cache`).  RTT/latency distributions are serialized as
their raw samples (plus multiplicity weights for population runs), as
plain JSON float lists, and rebuilt with :func:`~repro.metrics.compute_rtt`,
which also accepts the float64 arrays the disk cache decodes from its
packed hex columns.  Nothing derived from the samples is stored or
recomputed on load: an :class:`~repro.metrics.RTTResult` reduces on read,
so a figure that reads only medians never builds a summary, and the
statistics after a round-trip are bit-for-bit those of the original
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..metrics import RTTResult, ThroughputResult, compute_rtt

__all__ = ["RunResult", "ExperimentResult", "PointFailure"]


@dataclass
class PointFailure:
    """A scenario point that exhausted its execution policy's attempts.

    Sweeps and comparisons collect these under ``on_error="record"`` so the
    failure (label, axes, traceback, attempt count) survives being dropped
    from the result grids; ``on_error="skip"`` discards failed points
    before any sweep sees them.
    """

    label: str
    axes: dict = field(default_factory=dict)
    #: Worker traceback text from the last attempt.
    error: str = ""
    attempts: int = 1
    #: Full point coordinates (``ScenarioPoint.describe()``: the swept axes
    #: plus the config's own coordinates, incl. ``population`` and
    #: ``faults.*``), so a chaos sweep's dead points are attributable
    #: without re-running.
    coordinates: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        last_line = self.error.strip().splitlines()[-1] if self.error else ""
        extras = {key: value for key, value in self.coordinates.items()
                  if key not in ("label", "kind", "architecture")
                  and key not in self.axes}
        return {"architecture": self.label, **self.axes, **extras,
                "attempts": self.attempts, "error": last_line}


@dataclass
class RunResult:
    """Measurements from one run of one experiment point."""

    architecture: str
    workload: str
    pattern: str
    num_producers: int
    num_consumers: int
    feasible: bool = True
    infeasible_reason: str = ""
    published: int = 0
    consumed: int = 0
    replies: int = 0
    failed_publishes: int = 0
    duration_s: float = 0.0
    sim_time_s: float = 0.0
    completed: bool = True
    throughput: Optional[ThroughputResult] = None
    rtt: Optional[RTTResult] = None
    latency: Optional[RTTResult] = None
    consumer_balance: float = float("nan")
    extra: dict = field(default_factory=dict)

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.throughput.msgs_per_s if self.throughput else 0.0

    @property
    def median_rtt_s(self) -> float:
        return self.rtt.median_s if self.rtt and self.rtt.count else float("nan")

    def as_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "workload": self.workload,
            "pattern": self.pattern,
            "producers": self.num_producers,
            "consumers": self.num_consumers,
            "feasible": self.feasible,
            "published": self.published,
            "consumed": self.consumed,
            "replies": self.replies,
            "throughput_msgs_per_s": self.throughput_msgs_per_s,
            "median_rtt_s": self.median_rtt_s,
            "duration_s": self.duration_s,
            "completed": self.completed,
        }

    # -- serialization -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Plain-JSON representation; inverse of :meth:`from_json_dict`."""
        payload = {
            "architecture": self.architecture,
            "workload": self.workload,
            "pattern": self.pattern,
            "num_producers": self.num_producers,
            "num_consumers": self.num_consumers,
            "feasible": self.feasible,
            "infeasible_reason": self.infeasible_reason,
            "published": self.published,
            "consumed": self.consumed,
            "replies": self.replies,
            "failed_publishes": self.failed_publishes,
            "duration_s": self.duration_s,
            "sim_time_s": self.sim_time_s,
            "completed": self.completed,
            "throughput": self.throughput.as_dict() if self.throughput else None,
            "rtt_samples": (self.rtt.samples.tolist()
                            if self.rtt is not None else None),
            "latency_samples": (self.latency.samples.tolist()
                                if self.latency is not None else None),
            "consumer_balance": self.consumer_balance,
            "extra": self.extra,
        }
        # Multiplicity weight columns appear ONLY for weighted (aggregate
        # population) runs, so the serialized bytes of unweighted runs — and
        # therefore their golden digests — are unchanged.
        if self.rtt is not None and self.rtt.weights is not None:
            payload["rtt_weights"] = self.rtt.weights.tolist()
        if self.latency is not None and self.latency.weights is not None:
            payload["latency_weights"] = self.latency.weights.tolist()
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunResult":
        throughput = payload.get("throughput")
        rtt_samples = payload.get("rtt_samples")
        latency_samples = payload.get("latency_samples")
        rtt_weights = payload.get("rtt_weights")
        latency_weights = payload.get("latency_weights")
        return cls(
            architecture=payload["architecture"],
            workload=payload["workload"],
            pattern=payload["pattern"],
            num_producers=payload["num_producers"],
            num_consumers=payload["num_consumers"],
            feasible=payload["feasible"],
            infeasible_reason=payload.get("infeasible_reason", ""),
            published=payload.get("published", 0),
            consumed=payload.get("consumed", 0),
            replies=payload.get("replies", 0),
            failed_publishes=payload.get("failed_publishes", 0),
            duration_s=payload.get("duration_s", 0.0),
            sim_time_s=payload.get("sim_time_s", 0.0),
            completed=payload.get("completed", True),
            throughput=(ThroughputResult(**throughput)
                        if throughput is not None else None),
            rtt=(compute_rtt(rtt_samples, weights=rtt_weights)
                 if rtt_samples is not None else None),
            latency=(compute_rtt(latency_samples, weights=latency_weights)
                     if latency_samples is not None else None),
            consumer_balance=payload.get("consumer_balance", float("nan")),
            extra=payload.get("extra", {}),
        )


@dataclass
class ExperimentResult:
    """Averaged measurements over the runs of one experiment point."""

    architecture: str
    workload: str
    pattern: str
    num_producers: int
    num_consumers: int
    runs: list[RunResult] = field(default_factory=list)

    # -- feasibility -----------------------------------------------------------
    @property
    def feasible(self) -> bool:
        return bool(self.runs) and all(run.feasible for run in self.runs)

    @property
    def infeasible_reason(self) -> str:
        for run in self.runs:
            if not run.feasible:
                return run.infeasible_reason
        return ""

    # -- aggregates -----------------------------------------------------------
    def _feasible_runs(self) -> list[RunResult]:
        return [run for run in self.runs if run.feasible]

    @property
    def throughput_msgs_per_s(self) -> float:
        runs = self._feasible_runs()
        if not runs:
            return float("nan")
        return float(np.mean([run.throughput_msgs_per_s for run in runs]))

    @property
    def throughput_gbps(self) -> float:
        runs = [r for r in self._feasible_runs() if r.throughput]
        if not runs:
            return float("nan")
        return float(np.mean([run.throughput.gbits_per_s for run in runs]))

    @property
    def median_rtt_s(self) -> float:
        values = [run.median_rtt_s for run in self._feasible_runs()
                  if run.rtt is not None and run.rtt.count]
        if not values:
            return float("nan")
        return float(np.mean(values))

    @property
    def rtt_samples(self) -> np.ndarray:
        """All RTT samples pooled across runs (for CDF figures)."""
        chunks = [run.rtt.samples for run in self._feasible_runs()
                  if run.rtt is not None and run.rtt.count]
        if not chunks:
            return np.array([])
        return np.concatenate(chunks)

    def pooled_rtt(self) -> RTTResult:
        runs = [run for run in self._feasible_runs()
                if run.rtt is not None and run.rtt.count]
        if any(run.rtt.weights is not None for run in runs):
            # Pool the multiplicity weights alongside the samples; runs
            # without weights contribute unit weights.
            weights = np.concatenate([
                run.rtt.weights if run.rtt.weights is not None
                else np.ones(run.rtt.samples.size)
                for run in runs])
            return compute_rtt(self.rtt_samples, weights=weights)
        return compute_rtt(self.rtt_samples)

    @property
    def consumed(self) -> int:
        return sum(run.consumed for run in self._feasible_runs())

    def as_row(self) -> dict:
        """One figure/table row for this experiment point."""
        return {
            "architecture": self.architecture,
            "workload": self.workload,
            "pattern": self.pattern,
            "consumers": self.num_consumers,
            "producers": self.num_producers,
            "feasible": self.feasible,
            "throughput_msgs_per_s": self.throughput_msgs_per_s,
            "throughput_gbps": self.throughput_gbps,
            "median_rtt_s": self.median_rtt_s,
            "runs": len(self.runs),
        }

    # -- serialization -----------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Plain-JSON representation; inverse of :meth:`from_json_dict`."""
        return {
            "architecture": self.architecture,
            "workload": self.workload,
            "pattern": self.pattern,
            "num_producers": self.num_producers,
            "num_consumers": self.num_consumers,
            "runs": [run.to_json_dict() for run in self.runs],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentResult":
        return cls(
            architecture=payload["architecture"],
            workload=payload["workload"],
            pattern=payload["pattern"],
            num_producers=payload["num_producers"],
            num_consumers=payload["num_consumers"],
            runs=[RunResult.from_json_dict(run) for run in payload["runs"]],
        )
