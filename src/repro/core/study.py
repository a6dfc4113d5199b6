"""Comparative-study API: the paper's primary contribution as a library.

The paper's contribution is not a single algorithm but a *controlled
comparison*: deploy DTS, PRS and MSS on the same infrastructure, drive them
with the same workloads and messaging patterns, and quantify throughput,
RTT and overhead relative to DTS.  :func:`compare_architectures` packages
exactly that loop as one :class:`~repro.harness.sweep.SweepResult`;
:func:`overheads` computes every overhead factor against DTS (here and in
:func:`~repro.core.figures.overhead_summary`) and :func:`comparison_rows`
flattens a comparison into table rows.  :func:`deployment_comparison`
reproduces the qualitative feasibility comparison of §2/§6 from
actually-deployed architectures.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..architectures import DeploymentReport, TestbedConfig
from ..harness import (
    ExperimentConfig,
    ExperimentResult,
    ScenarioSet,
    Session,
    SweepResult,
    run_scenarios,
    run_sweep,
)
from ..metrics import OverheadResult, overhead_table

__all__ = ["compare_architectures", "comparison_rows", "overheads",
           "deployment_comparison", "PAPER_ARCHITECTURES",
           "BASELINE_ARCHITECTURE"]

#: The architecture labels evaluated in the paper's figures.
PAPER_ARCHITECTURES = ("DTS", "PRS(Stunnel)", "PRS(HAProxy)",
                       "PRS(HAProxy,4conns)", "MSS")

#: §5.2: DTS is the overhead baseline.
BASELINE_ARCHITECTURE = "DTS"

#: comparison_rows' overhead columns: metric -> column name.
_OVERHEAD_COLUMNS = {"throughput_msgs_per_s": "throughput_overhead_vs_dts",
                     "median_rtt_s": "rtt_overhead_vs_dts"}


def overheads(results_by_architecture: Mapping[str, ExperimentResult],
              metric: str) -> list[OverheadResult]:
    """Overhead factor of every architecture against DTS
    (:data:`BASELINE_ARCHITECTURE`) at one coordinate (a group of
    :meth:`SweepResult.groups`).

    Infeasible points, and points without RTT samples for an RTT metric,
    are left out; empty when DTS has no value.  Throughput counts higher
    as better, every other metric lower.
    """
    needs_samples = metric.endswith("rtt_s")
    values = {label: getattr(result, metric)
              for label, result in results_by_architecture.items()
              if result.feasible
              and (not needs_samples or result.rtt_samples.size)}
    if BASELINE_ARCHITECTURE not in values:
        return []
    return overhead_table(values, baseline=BASELINE_ARCHITECTURE,
                          metric=metric,
                          higher_is_better=metric.startswith("throughput"))


def comparison_rows(sweep: SweepResult) -> list[dict]:
    """One row per point: the result's row, its non-architecture
    coordinates, and its throughput and median-RTT overhead against DTS
    at the same coordinate (1.0 for DTS itself, NaN where no factor
    exists)."""
    others = [name for name in sweep.axes if name != "architecture"]
    rows = []
    for coordinate, by_architecture in sweep.groups():
        factors = {metric: {entry.architecture: entry.factor
                            for entry in overheads(by_architecture, metric)}
                   for metric in _OVERHEAD_COLUMNS}
        for label, result in by_architecture.items():
            row = {**result.as_row(), **dict(zip(others, coordinate))}
            for metric, column in _OVERHEAD_COLUMNS.items():
                row[column] = factors[metric].get(
                    label,
                    1.0 if label == BASELINE_ARCHITECTURE else float("nan"))
            rows.append(row)
    return rows


def compare_architectures(*, workload: str = "Dstream",
                          pattern: str = "work_sharing",
                          consumers: int = 4,
                          producers: Optional[int] = None,
                          architectures: Sequence[str] = PAPER_ARCHITECTURES,
                          messages_per_producer: int = 30,
                          runs: int = 1,
                          seed: int = 1,
                          testbed: Optional[TestbedConfig] = None,
                          axes: Optional[dict] = None,
                          session: Optional[Session] = None,
                          **config_overrides) -> SweepResult:
    """Run the same scenario through several architectures and compare.

    Returns the :class:`~repro.harness.sweep.SweepResult` over
    ``{"architecture", *axes}``: read a point as ``sweep.get("DTS")`` and
    the table as :func:`comparison_rows`.  ``session`` carries the
    execution context; under a session policy with ``on_error="record"`` a
    crashed architecture lands in ``failures`` with its coordinates.
    The base config runs DTS, which keeps ``architecture_options``.

    ``axes`` adds sweep axes (dotted config paths such as
    ``{"testbed.dsn_count": [1, 3, 5]}``): the comparison repeats at every
    coordinate, and overheads are against DTS at the same coordinate.
    """
    if pattern in ("broadcast", "broadcast_gather"):
        producer_count = 1
    else:
        producer_count = producers if producers is not None else consumers
    config = ExperimentConfig(
        architecture=BASELINE_ARCHITECTURE,
        workload=workload,
        pattern=pattern,
        num_producers=producer_count,
        num_consumers=consumers,
        messages_per_producer=messages_per_producer,
        runs=runs,
        seed=seed,
        testbed=testbed or TestbedConfig(),
        **config_overrides,
    )
    axes = axes or {}
    if "architecture" in axes:
        raise ValueError("pass extra sweep axes only; the architecture "
                         "axis comes from the architectures argument")
    # equal_producers=False: the producer count is already fixed above.
    return run_sweep(config, {"architecture": list(architectures), **axes},
                     equal_producers=False, session=session)


def deployment_comparison(architectures: Iterable[str] = PAPER_ARCHITECTURES, *,
                          testbed_config: Optional[TestbedConfig] = None,
                          session: Optional[Session] = None
                          ) -> dict[str, DeploymentReport]:
    """Deploy each architecture (control plane only) and report feasibility.

    This regenerates the qualitative §2/§6 comparison — hop counts, firewall
    rules, exposed ports, administrative and user steps — from real deployed
    objects rather than prose.  Each architecture deploys on its own testbed
    with a distinct derived seed so the placements are independent.
    ``session`` carries the execution context (deployment points are never
    cached, so a session cache is simply unused here); under a non-raising
    session policy a crashed deployment is simply absent from the returned
    mapping.
    """
    config = testbed_config or TestbedConfig(producer_nodes=2, consumer_nodes=2)
    base = ExperimentConfig(testbed=config, seed=config.seed)
    scenarios = ScenarioSet.deployments(list(architectures), base)
    return {outcome.point.label: outcome.result
            for outcome in run_scenarios(scenarios, session=session)
            if outcome.ok}
