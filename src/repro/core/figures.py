"""Regenerate the data behind every figure in the paper's evaluation.

Each ``figureN`` function runs the corresponding experiment sweep and
returns structured data (series per architecture, CDFs, rows for tables).
Absolute numbers differ from the paper — the substrate is a simulator, not
the OLCF testbed — but the qualitative shapes (ordering, saturation points,
overhead factors) are the reproduction target; see EXPERIMENTS.md.

Figure index
------------
* :func:`figure4`  — work-sharing throughput vs consumer count (Dstream, Lstream).
* :func:`figure5`  — CDFs of per-message RTT, work sharing with feedback.
* :func:`figure6`  — median RTT vs consumer count, work sharing with feedback.
* :func:`figure7`  — broadcast throughput and broadcast+gather median RTT (Generic).
* :func:`figure8`  — CDFs of per-message RTT, broadcast and gather (Generic).
* :func:`overhead_summary` — PRS/MSS overhead factors vs DTS (§5.3/§5.4 text).
* ``ablation_*``   — §6 what-if studies (tunnel type, connections, LB bypass,
  link speed, queue count, network-layer forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..architectures import TestbedConfig
from ..faults import FAULT_AXES, FaultPlan
from ..harness import (
    PAPER_CONSUMER_COUNTS,
    ExperimentConfig,
    ScenarioSet,
    Session,
    SweepResult,
    run_scenarios,
    scale_link_tiers,
    sensitivity_sweep,
)
from ..metrics import empirical_cdf, overhead_table
from .study import BASELINE_ARCHITECTURE, PAPER_ARCHITECTURES

__all__ = [
    "FigureData",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure_bandwidth_scaling",
    "figure_chaos_degradation",
    "overhead_summary",
    "ablation_tunnel_type",
    "ablation_proxy_connections",
    "ablation_mss_lb_bypass",
    "ablation_link_speed",
    "ablation_work_queue_count",
    "ablation_network_layer_forwarding",
    "FIGURE4_ARCHITECTURES",
    "RTT_ARCHITECTURES",
    "BROADCAST_ARCHITECTURES",
]

#: Architectures plotted in Figure 4.
FIGURE4_ARCHITECTURES = PAPER_ARCHITECTURES
#: §5.4: Stunnel is excluded from the RTT studies (Figures 5, 6).
RTT_ARCHITECTURES = ("DTS", "PRS(HAProxy)", "PRS(HAProxy,4conns)", "MSS")
#: §5.5: broadcast/gather compares DTS, PRS(HAProxy) and MSS (Figures 7, 8).
BROADCAST_ARCHITECTURES = ("DTS", "PRS(HAProxy)", "MSS")


@dataclass
class FigureData:
    """Structured output of one figure regeneration."""

    figure: str
    description: str
    #: ``sweeps[workload]`` -> :class:`SweepResult` (throughput / median RTT).
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    #: ``cdfs[workload][consumers][architecture]`` -> (x, p) arrays.
    cdfs: dict[str, dict[int, dict[str, tuple[np.ndarray, np.ndarray]]]] = field(
        default_factory=dict)
    #: Long-format rows suitable for tables / CSV export.
    rows: list[dict] = field(default_factory=list)

    def series(self, workload: str, architecture: str,
               metric: str = "throughput_msgs_per_s") -> list[tuple[int, float]]:
        return self.sweeps[workload].series(architecture, metric)


def _base_config(workload: str, pattern: str, *, messages_per_producer: int,
                 runs: int, seed: int, testbed: Optional[TestbedConfig],
                 **overrides) -> ExperimentConfig:
    producers = 1 if pattern in ("broadcast", "broadcast_gather") else 1
    return ExperimentConfig(
        architecture=BASELINE_ARCHITECTURE,
        workload=workload,
        pattern=pattern,
        num_producers=producers,
        num_consumers=1,
        messages_per_producer=messages_per_producer,
        runs=runs,
        seed=seed,
        testbed=testbed or TestbedConfig(),
        **overrides,
    )


def _sweep_grid(workloads: Sequence[str], patterns: Sequence[str],
                architectures: Sequence[str], consumer_counts: Iterable[int],
                *, session: Session, messages_per_producer: int, runs: int,
                seed: int, testbed: Optional[TestbedConfig],
                equal_producers: bool = True
                ) -> dict[tuple[str, str], SweepResult]:
    """Sweeps for every (workload, pattern) cell, executed as ONE scenario
    grid so a parallel session fans out across all of a figure's points,
    not just within one sweep."""
    consumer_counts = tuple(consumer_counts)
    base = _base_config(workloads[0], patterns[0],
                        messages_per_producer=messages_per_producer,
                        runs=runs, seed=seed, testbed=testbed)
    scenarios = ScenarioSet.product(
        base, {"architecture": list(architectures),
               "workload": list(workloads), "pattern": list(patterns),
               "consumers": consumer_counts},
        equal_producers=equal_producers)
    sweeps: dict[tuple[str, str], SweepResult] = {}
    for workload in workloads:
        for pattern in patterns:
            sweeps[(workload, pattern)] = SweepResult(
                workload=workload, pattern=pattern,
                consumer_counts=consumer_counts)
    for outcome in run_scenarios(scenarios, session=session):
        axes = outcome.point.axes
        sweep = sweeps[(axes["workload"], axes["pattern"])]
        if not outcome.ok:
            sweep.record_failure(outcome)
            continue
        sweep.results.setdefault(outcome.point.label, {})
        sweep.results[outcome.point.label][axes["consumers"]] = outcome.result
    return sweeps


def _collect_cdfs(sweep: SweepResult, consumer_counts: Iterable[int],
                  cdf_points: int) -> dict[int, dict[str, tuple[np.ndarray, np.ndarray]]]:
    cdfs: dict[int, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for consumers in consumer_counts:
        per_arch: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for architecture in sweep.architectures():
            result = sweep.get(architecture, consumers)
            if result is None or not result.feasible:
                continue
            samples = result.rtt_samples
            if samples.size == 0:
                continue
            per_arch[architecture] = empirical_cdf(samples, points=cdf_points)
        cdfs[consumers] = per_arch
    return cdfs


# ---------------------------------------------------------------------------
# Figure 4 — work sharing throughput
# ---------------------------------------------------------------------------

def figure4(*, workloads: Sequence[str] = ("Dstream", "Lstream"),
            architectures: Sequence[str] = FIGURE4_ARCHITECTURES,
            consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
            messages_per_producer: int = 20,
            runs: int = 1, seed: int = 1,
            testbed: Optional[TestbedConfig] = None,
            session: Optional[Session] = None) -> FigureData:
    """Throughput (msgs/s) under the work sharing pattern (Figure 4)."""
    data = FigureData(
        figure="figure4",
        description="Aggregate consumer throughput vs consumer count, "
                    "work sharing pattern (Dstream and Lstream)")
    sweeps = _sweep_grid(list(workloads), ["work_sharing"], architectures,
                         consumer_counts, session=session,
                         messages_per_producer=messages_per_producer, runs=runs,
                         seed=seed, testbed=testbed)
    for workload in workloads:
        sweep = sweeps[(workload, "work_sharing")]
        data.sweeps[workload] = sweep
        data.rows.extend(sweep.rows("throughput_msgs_per_s"))
    return data


# ---------------------------------------------------------------------------
# Figures 5 and 6 — work sharing with feedback RTT
# ---------------------------------------------------------------------------

def figure6(*, workloads: Sequence[str] = ("Dstream", "Lstream"),
            architectures: Sequence[str] = RTT_ARCHITECTURES,
            consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
            messages_per_producer: int = 15,
            runs: int = 1, seed: int = 1,
            testbed: Optional[TestbedConfig] = None,
            session: Optional[Session] = None) -> FigureData:
    """Median RTT under work sharing with feedback (Figure 6)."""
    data = FigureData(
        figure="figure6",
        description="Median per-message RTT vs consumer count, "
                    "work sharing with feedback (Dstream and Lstream)")
    sweeps = _sweep_grid(list(workloads), ["work_sharing_feedback"],
                         architectures, consumer_counts, session=session,
                         messages_per_producer=messages_per_producer, runs=runs,
                         seed=seed, testbed=testbed)
    for workload in workloads:
        sweep = sweeps[(workload, "work_sharing_feedback")]
        data.sweeps[workload] = sweep
        data.rows.extend(sweep.rows("median_rtt_s"))
    return data


def figure5(*, workloads: Sequence[str] = ("Dstream", "Lstream"),
            architectures: Sequence[str] = RTT_ARCHITECTURES,
            consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
            messages_per_producer: int = 15,
            runs: int = 1, seed: int = 1, cdf_points: int = 100,
            testbed: Optional[TestbedConfig] = None,
            session: Optional[Session] = None) -> FigureData:
    """CDFs of per-message RTT under work sharing with feedback (Figure 5)."""
    consumer_counts = tuple(consumer_counts)
    data = figure6(workloads=workloads, architectures=architectures,
                   consumer_counts=consumer_counts,
                   messages_per_producer=messages_per_producer, runs=runs,
                   seed=seed, testbed=testbed, session=session)
    data.figure = "figure5"
    data.description = ("CDF of individual message RTTs, work sharing with "
                        "feedback (Dstream and Lstream), 1-64 consumers")
    for workload, sweep in data.sweeps.items():
        data.cdfs[workload] = _collect_cdfs(sweep, consumer_counts, cdf_points)
    return data


# ---------------------------------------------------------------------------
# Figures 7 and 8 — broadcast and gather
# ---------------------------------------------------------------------------

def figure7(*, architectures: Sequence[str] = BROADCAST_ARCHITECTURES,
            consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
            messages_per_producer: int = 6,
            runs: int = 1, seed: int = 1,
            testbed: Optional[TestbedConfig] = None,
            session: Optional[Session] = None) -> FigureData:
    """Broadcast throughput and broadcast+gather median RTT (Figure 7)."""
    data = FigureData(
        figure="figure7",
        description="(a) broadcast throughput and (b) broadcast+gather median "
                    "RTT for the generic workload")
    sweeps = _sweep_grid(["Generic"], ["broadcast", "broadcast_gather"],
                         architectures, consumer_counts, session=session,
                         messages_per_producer=messages_per_producer, runs=runs,
                         seed=seed, testbed=testbed, equal_producers=False)
    broadcast = sweeps[("Generic", "broadcast")]
    gather = sweeps[("Generic", "broadcast_gather")]
    data.sweeps["broadcast"] = broadcast
    data.sweeps["broadcast_gather"] = gather
    for row in broadcast.rows("throughput_msgs_per_s"):
        row["panel"] = "a-throughput"
        data.rows.append(row)
    for row in gather.rows("median_rtt_s"):
        row["panel"] = "b-median-rtt"
        data.rows.append(row)
    return data


def figure8(*, architectures: Sequence[str] = BROADCAST_ARCHITECTURES,
            consumer_counts: Iterable[int] = PAPER_CONSUMER_COUNTS,
            messages_per_producer: int = 6,
            runs: int = 1, seed: int = 1, cdf_points: int = 100,
            testbed: Optional[TestbedConfig] = None,
            session: Optional[Session] = None) -> FigureData:
    """CDFs of per-message RTT under broadcast and gather (Figure 8)."""
    consumer_counts = tuple(consumer_counts)
    data = FigureData(
        figure="figure8",
        description="CDF of individual message RTTs, broadcast and gather "
                    "(generic workload), 1-64 consumers")
    [sweep] = _sweep_grid(["Generic"], ["broadcast_gather"], architectures,
                          consumer_counts, session=session,
                          messages_per_producer=messages_per_producer,
                          runs=runs, seed=seed, testbed=testbed,
                          equal_producers=False).values()
    data.sweeps["Generic"] = sweep
    data.cdfs["Generic"] = _collect_cdfs(sweep, consumer_counts, cdf_points)
    data.rows.extend(sweep.rows("median_rtt_s"))
    return data


# ---------------------------------------------------------------------------
# Bandwidth scaling (§6: the 1 Gbps testbed limitation vs 100 Gbps)
# ---------------------------------------------------------------------------

def figure_bandwidth_scaling(*, workload: str = "Lstream",
                             architectures: Sequence[str] = BROADCAST_ARCHITECTURES,
                             consumers: int = 16,
                             speeds_gbps: Sequence[float] = (1, 10, 100),
                             messages_per_producer: int = 10,
                             runs: int = 1, seed: int = 1,
                             testbed: Optional[TestbedConfig] = None,
                             scale_backbone: bool = True,
                             session: Optional[Session] = None) -> FigureData:
    """Throughput vs access-link bandwidth (the §6 1-vs-100 Gbps discussion).

    Every headline number in the paper sits at the testbed's 1 Gbps
    operating point; this sweep moves that point through ``speeds_gbps`` and
    reports each architecture's throughput plus its speedup relative to the
    first (paper) speed, so the "what would 100 Gbps interfaces buy"
    question in §6 becomes a figure instead of prose.  ``scale_backbone``
    keeps the backbone/gateway tiers at their default ratios to the access
    links (via :meth:`TestbedConfig.with_link_bandwidth`) so the sweep
    changes the operating point, not the topology shape.
    """
    base = _base_config(workload, "work_sharing",
                        messages_per_producer=messages_per_producer,
                        runs=runs, seed=seed, testbed=testbed)
    base = base.with_consumers(consumers)
    axis = "testbed.link_bandwidth_bps"
    transform = scale_link_tiers if scale_backbone else None
    sweep = sensitivity_sweep(
        base,
        {"architecture": list(architectures),
         axis: [speed * 1e9 for speed in speeds_gbps]},
        transform=transform, session=session)
    data = FigureData(
        figure="bandwidth",
        description=f"Aggregate throughput vs access-link bandwidth, "
                    f"work sharing ({workload}, {consumers} consumers)")
    data.sweeps["bandwidth"] = sweep
    first_bps = speeds_gbps[0] * 1e9
    for row in sweep.rows("throughput_msgs_per_s"):
        bandwidth_bps = row.pop(axis)
        reference = sweep.get(row["architecture"], first_bps)
        speedup = float("nan")
        if (reference is not None and reference.feasible
                and reference.throughput_msgs_per_s):
            speedup = (row["throughput_msgs_per_s"]
                       / reference.throughput_msgs_per_s)
        data.rows.append({
            "workload": workload,
            "pattern": "work_sharing",
            "architecture": row["architecture"],
            "consumers": consumers,
            "link_gbps": bandwidth_bps / 1e9,
            "feasible": row["feasible"],
            "throughput_msgs_per_s": row["throughput_msgs_per_s"],
            f"speedup_vs_{speeds_gbps[0]:g}gbps": speedup,
        })
    return data


def figure_chaos_degradation(*, fault_axis: str = "broker_kill_rate",
                             rates: Sequence[float] = (0.0, 1.0, 2.0),
                             architectures: Sequence[str] = PAPER_ARCHITECTURES,
                             workload: str = "Dstream",
                             consumers: int = 4,
                             messages_per_producer: int = 25,
                             runs: int = 1, seed: int = 1,
                             plan: Optional[FaultPlan] = None,
                             testbed: Optional[TestbedConfig] = None,
                             session: Optional[Session] = None) -> FigureData:
    """Throughput degradation vs fault rate, per architecture (chaos sweep).

    Sweeps one fault axis (default: broker kills) through ``rates`` for
    every architecture and reports each point's throughput plus its
    *degradation* — throughput relative to the same architecture at the
    first (normally fault-free) rate — so the architectures' failure
    resilience becomes a figure: an architecture whose curve stays near 1.0
    rides out the chaos, one that collapses does not.  ``plan`` supplies
    the secondary knobs (downtimes, horizon, weather windows); the swept
    axis value overrides that plan's primary axis at every point.
    """
    if fault_axis not in FAULT_AXES:
        raise ValueError(f"unknown fault axis {fault_axis!r}; "
                         f"expected one of {FAULT_AXES}")
    base = _base_config(workload, "work_sharing",
                        messages_per_producer=messages_per_producer,
                        runs=runs, seed=seed, testbed=testbed,
                        faults=plan or FaultPlan())
    base = base.with_consumers(consumers)
    axis = f"faults.{fault_axis}"
    sweep = sensitivity_sweep(
        base,
        {"architecture": list(architectures), axis: list(rates)},
        session=session)
    data = FigureData(
        figure="chaos",
        description=f"Throughput degradation vs {fault_axis}, "
                    f"work sharing ({workload}, {consumers} consumers)")
    data.sweeps["chaos"] = sweep
    first_rate = rates[0]
    for row in sweep.rows("throughput_msgs_per_s"):
        rate = row.pop(axis)
        reference = sweep.get(row["architecture"], first_rate)
        degradation = float("nan")
        if (reference is not None and reference.feasible
                and reference.throughput_msgs_per_s):
            degradation = (row["throughput_msgs_per_s"]
                           / reference.throughput_msgs_per_s)
        data.rows.append({
            "workload": workload,
            "pattern": "work_sharing",
            "architecture": row["architecture"],
            "consumers": consumers,
            fault_axis: rate,
            "feasible": row["feasible"],
            "throughput_msgs_per_s": row["throughput_msgs_per_s"],
            f"degradation_vs_{first_rate:g}": degradation,
        })
    return data


# ---------------------------------------------------------------------------
# Overhead summary (§5.3/§5.4 prose numbers)
# ---------------------------------------------------------------------------

def overhead_summary(figure4_data: FigureData, figure6_data: FigureData,
                     *, baseline: str = BASELINE_ARCHITECTURE) -> list[dict]:
    """PRS/MSS overhead factors vs DTS for throughput and median RTT."""
    rows: list[dict] = []
    for workload, sweep in figure4_data.sweeps.items():
        for consumers in sweep.consumer_counts:
            values = {}
            for architecture in sweep.architectures():
                result = sweep.get(architecture, consumers)
                if result is not None and result.feasible:
                    values[architecture] = result.throughput_msgs_per_s
            if baseline not in values:
                continue
            for entry in overhead_table(values, baseline=baseline,
                                        metric="throughput_msgs_per_s",
                                        higher_is_better=True):
                row = entry.as_dict()
                row.update({"workload": workload, "consumers": consumers,
                            "pattern": "work_sharing"})
                rows.append(row)
    for workload, sweep in figure6_data.sweeps.items():
        for consumers in sweep.consumer_counts:
            values = {}
            for architecture in sweep.architectures():
                result = sweep.get(architecture, consumers)
                if result is not None and result.feasible and result.rtt_samples.size:
                    values[architecture] = result.median_rtt_s
            if baseline not in values:
                continue
            for entry in overhead_table(values, baseline=baseline,
                                        metric="median_rtt_s",
                                        higher_is_better=False):
                row = entry.as_dict()
                row.update({"workload": workload, "consumers": consumers,
                            "pattern": "work_sharing_feedback"})
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# §6 ablations
# ---------------------------------------------------------------------------

def ablation_tunnel_type(*, workload: str = "Dstream",
                         consumer_counts: Iterable[int] = (1, 4, 16),
                         messages_per_producer: int = 15, seed: int = 1,
                         testbed: Optional[TestbedConfig] = None,
                         session: Optional[Session] = None) -> SweepResult:
    """PRS tunnel choice: Stunnel vs HAProxy vs Nginx."""
    [sweep] = _sweep_grid([workload], ["work_sharing"],
                          ["PRS(Stunnel)", "PRS(HAProxy)", "PRS(Nginx)"],
                          consumer_counts, session=session,
                          messages_per_producer=messages_per_producer,
                          runs=1, seed=seed, testbed=testbed).values()
    return sweep


def ablation_proxy_connections(*, workload: str = "Dstream",
                               consumer_counts: Iterable[int] = (1, 4, 16),
                               messages_per_producer: int = 15, seed: int = 1,
                               testbed: Optional[TestbedConfig] = None,
                               session: Optional[Session] = None,
                               ) -> SweepResult:
    """Number of parallel connections to the PRS proxies (1 vs 4)."""
    [sweep] = _sweep_grid([workload], ["work_sharing"],
                          ["PRS(HAProxy)", "PRS(HAProxy,4conns)"],
                          consumer_counts, session=session,
                          messages_per_producer=messages_per_producer,
                          runs=1, seed=seed, testbed=testbed).values()
    return sweep


def ablation_mss_lb_bypass(*, workload: str = "Dstream",
                           consumer_counts: Iterable[int] = (4, 16, 64),
                           messages_per_producer: int = 15, seed: int = 1,
                           testbed: Optional[TestbedConfig] = None,
                           session: Optional[Session] = None) -> SweepResult:
    """§6 improvement: internal consumers bypass the MSS load balancer."""
    [sweep] = _sweep_grid([workload], ["work_sharing"],
                          ["MSS", "MSS(bypass)"],
                          consumer_counts, session=session,
                          messages_per_producer=messages_per_producer,
                          runs=1, seed=seed, testbed=testbed).values()
    return sweep


def ablation_link_speed(*, workload: str = "Lstream",
                        consumers: int = 16,
                        messages_per_producer: int = 10, seed: int = 1,
                        speeds_gbps: Sequence[float] = (1, 10, 100),
                        session: Optional[Session] = None) -> list[dict]:
    """§6: what the 100 Gbps interfaces would buy each architecture.

    Thin wrapper over :func:`figure_bandwidth_scaling` kept for the
    historical row shape (architecture-major order since the sweep moved to
    the product grid).
    """
    data = figure_bandwidth_scaling(
        workload=workload, consumers=consumers, speeds_gbps=speeds_gbps,
        messages_per_producer=messages_per_producer, seed=seed,
        session=session)
    return [{"link_gbps": row["link_gbps"],
             "architecture": row["architecture"],
             "consumers": row["consumers"],
             "throughput_msgs_per_s": row["throughput_msgs_per_s"]}
            for row in data.rows]


def ablation_work_queue_count(*, workload: str = "Dstream",
                              consumers: int = 8,
                              queue_counts: Sequence[int] = (1, 2, 4),
                              messages_per_producer: int = 20,
                              seed: int = 1,
                              session: Optional[Session] = None) -> list[dict]:
    """§5.2: the two-shared-work-queues choice vs one or four queues."""
    scenarios = ScenarioSet()
    for queue_count in queue_counts:
        config = ExperimentConfig(
            architecture="DTS", workload=workload, pattern="work_sharing",
            num_producers=consumers, num_consumers=consumers,
            messages_per_producer=messages_per_producer,
            work_queue_count=queue_count, seed=seed)
        scenarios.add_config(config, label=f"queues={queue_count}",
                             work_queues=queue_count)
    return [{"work_queues": outcome.point.axes["work_queues"],
             "consumers": consumers,
             "throughput_msgs_per_s": outcome.result.throughput_msgs_per_s}
            for outcome in run_scenarios(scenarios, session=session)
            if outcome.ok]


def ablation_network_layer_forwarding(*, workload: str = "Dstream",
                                      consumer_counts: Iterable[int] = (1, 4, 16),
                                      messages_per_producer: int = 15,
                                      seed: int = 1,
                                      testbed: Optional[TestbedConfig] = None,
                                      session: Optional[Session] = None,
                                      ) -> SweepResult:
    """§6 future work: network-layer forwarding (EJFAT-style) vs DTS/PRS."""
    [sweep] = _sweep_grid([workload], ["work_sharing"],
                          ["DTS", "NLF", "PRS(HAProxy)"],
                          consumer_counts, session=session,
                          messages_per_producer=messages_per_producer,
                          runs=1, seed=seed, testbed=testbed).values()
    return sweep
