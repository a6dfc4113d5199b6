"""Parameter sweeps: one product grid, one result type.

The paper varies the number of consumers from 1 to 64 (powers of two) and,
except for broadcast and gather, keeps the number of producers equal to the
number of consumers (§5.2).  Every sweep — a consumer sweep per
architecture, a testbed-axis sensitivity study (``testbed.dsn_count``,
``testbed.link_bandwidth_bps``, ``faults.*``, ...), an architecture
comparison, a whole figure — is :func:`run_sweep` over a
:meth:`~repro.harness.runner.ScenarioSet.product` grid, collected into one
:class:`SweepResult` keyed by coordinate tuples.  :meth:`SweepResult.where`
splits a grid into sub-grids (a figure's per-workload panels),
:meth:`SweepResult.groups` lines the architectures up at each coordinate
(overheads against DTS), and :meth:`SweepResult.rows` flattens a grid into
long-format records for tables and CSV.

Sweeps run under one :class:`~repro.harness.session.Session` passed as
``session=`` (``None`` means a fresh serial, fail-fast session).  A point
that two sweeps of one session share is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from .config import ExperimentConfig
from .results import ExperimentResult, PointFailure
from .runner import ScenarioPoint, ScenarioSet, run_scenarios
from .session import Session

__all__ = ["PAPER_CONSUMER_COUNTS", "SweepResult", "run_sweep",
           "scale_link_tiers"]

#: The x-axis of Figures 4–8.
PAPER_CONSUMER_COUNTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class SweepResult:
    """Results of a :meth:`ScenarioSet.product` grid over arbitrary axes.

    ``axes`` maps each axis name (``"architecture"``, ``"consumers"``,
    ``"testbed.link_bandwidth_bps"``, ...) to the swept values, in the
    deterministic execution order.  ``results`` is keyed by coordinate
    tuples — one value per axis, in ``axes`` order — so every result is
    addressable by its exact grid position: ``sweep.get("DTS", 64)`` on an
    ``(architecture, consumers)`` grid.
    """

    axes: dict[str, tuple]
    #: results[(v1, v2, ...)] -> ExperimentResult, keys in axis_names order.
    results: dict[tuple, ExperimentResult] = field(default_factory=dict)
    #: Points that exhausted their execution policy under on_error="record"
    #: (on_error="skip" drops failed points before the sweep sees them).
    failures: list[PointFailure] = field(default_factory=list)
    #: Coordinates pinned by :meth:`where`; they lead every row.
    fixed: dict = field(default_factory=dict)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    def __len__(self) -> int:
        return len(self.results)

    def get(self, *coordinate) -> Optional[ExperimentResult]:
        """The result at one grid position (values in axis order)."""
        return self.results.get(tuple(coordinate))

    def _require_axis(self, axis: str) -> None:
        if axis not in self.axes:
            raise ValueError(f"unknown axis {axis!r}; have {self.axis_names}")

    def _require_coordinates(self, fixed: dict) -> None:
        unknown = sorted(name for name in fixed if name not in self.axes)
        if unknown:
            raise ValueError(f"unknown fixed axes {unknown}; "
                             f"have {self.axis_names}")
        for name, value in fixed.items():
            if value not in self.axes[name]:
                raise ValueError(f"{value!r} is not a value of axis "
                                 f"{name!r}; its values are "
                                 f"{self.axes[name]}")

    def where(self, **fixed) -> "SweepResult":
        """The sub-grid at the pinned coordinates, without those axes.

        Dotted axis names are passed via ``**{"testbed.dsn_count": 3}``.
        Failures are filtered the same way, and the pinned values lead
        every row of the sub-grid.  A name that is not an axis, or a value
        that is not on its axis, is a ValueError.
        """
        self._require_coordinates(fixed)
        kept = [index for index, name in enumerate(self.axes)
                if name not in fixed]
        pinned = [(index, fixed[name]) for index, name in enumerate(self.axes)
                  if name in fixed]
        sub = SweepResult(
            axes={name: values for name, values in self.axes.items()
                  if name not in fixed},
            fixed={**self.fixed, **fixed},
            failures=[failure for failure in self.failures
                      if all(failure.axes.get(name) == value
                             for name, value in fixed.items())])
        for coordinate, result in self.results.items():
            if all(coordinate[index] == value for index, value in pinned):
                key = tuple(coordinate[index] for index in kept)
                sub.results[key] = result
        return sub

    def groups(self) -> Iterator[tuple[tuple, dict[str, ExperimentResult]]]:
        """Yield ``(other coordinates, {architecture: result})`` per group.

        The other coordinates keep axis order without ``architecture``;
        groups come in first-seen order.  This lines the architectures up
        at every coordinate, which is what an overhead against DTS
        compares.  A grid without an architecture axis is a ValueError.
        """
        self._require_axis("architecture")
        index = self.axis_names.index("architecture")
        grouped: dict[tuple, dict] = {}
        for coordinate, result in self.results.items():
            others = coordinate[:index] + coordinate[index + 1:]
            grouped.setdefault(others, {})[coordinate[index]] = result
        return iter(grouped.items())

    def rows(self, metric: str = "throughput_msgs_per_s") -> list[dict]:
        """Long-format rows: one dict per point with an axis column each.

        Columns are the pinned coordinates, the axis names (dotted paths
        kept as-is, so rows from different sweeps stay joinable), plus
        ``architecture``, ``feasible`` and the requested metric (NaN when
        infeasible).
        """
        rows = []
        for coordinate, result in self.results.items():
            row = {**self.fixed, **dict(zip(self.axes, coordinate))}
            row.setdefault("architecture", result.architecture)
            row["feasible"] = result.feasible
            row[metric] = (getattr(result, metric) if result.feasible
                           else float("nan"))
            rows.append(row)
        return rows

    def series(self, axis: str, metric: str = "throughput_msgs_per_s",
               **fixed) -> list[tuple]:
        """(axis value, metric) pairs along one axis, other axes fixed.

        ``fixed`` pins the remaining axes by name, as for :meth:`where`;
        axes left unpinned must not vary or the pairing would be ambiguous
        (ValueError).  Infeasible points are omitted.
        """
        self._require_axis(axis)
        sub = self.where(**fixed)
        free = [name for name, values in sub.axes.items()
                if name != axis and len(values) > 1]
        if free:
            raise ValueError(f"axes {free} vary; pin them via keyword "
                             f"arguments to get an unambiguous series")
        index = sub.axis_names.index(axis)
        return [(coordinate[index], getattr(result, metric))
                for coordinate, result in sub.results.items()
                if result.feasible]


def scale_link_tiers(config: ExperimentConfig) -> ExperimentConfig:
    """Per-point transform for bandwidth sweeps: rescale the backbone and
    gateway tiers to their default ratios against the point's (possibly
    swept) access-link bandwidth — the §6 ablation shape.  Pass as
    ``transform=`` so a ``testbed.link_bandwidth_bps`` axis moves the whole
    operating point, not just the access links.
    """
    return replace(config, testbed=config.testbed.with_link_bandwidth(
        config.testbed.link_bandwidth_bps))


def run_sweep(base: ExperimentConfig, axes: dict, *,
              equal_producers: bool = True,
              transform: Optional[Callable[[ExperimentConfig],
                                           ExperimentConfig]] = None,
              session: Optional[Session] = None,
              progress: Optional[Callable[[ScenarioPoint], None]] = None
              ) -> SweepResult:
    """Run a product grid over ``axes`` and collect it as a SweepResult.

    ``axes`` follows :meth:`ScenarioSet.product` exactly (special
    ``architecture``/``consumers`` coordinates plus dotted config paths);
    execution goes through :func:`run_scenarios` under ``session``, so the
    backend, cache and policy behave identically to every other sweep, and
    a parallel session's results are identical to serial execution.
    ``transform`` (applied via :meth:`ScenarioSet.map_configs`) lets the
    sweep derive coupled config changes from each point — e.g. rescaling
    the backbone links along with a swept access-link bandwidth.  Under a
    session policy with ``on_error="record"`` a failed point lands in
    ``SweepResult.failures`` with its full coordinates instead of killing
    the sweep.
    """
    scenarios = ScenarioSet.product(base, axes,
                                    equal_producers=equal_producers)
    if transform is not None:
        scenarios.map_configs(transform)
    sweep = SweepResult(axes={
        name: tuple(dict.fromkeys(point.axes[name] for point in scenarios))
        for name in scenarios[0].axes})
    for outcome in run_scenarios(scenarios, session=session,
                                 progress=progress):
        point = outcome.point
        if outcome.ok:
            coordinate = tuple(point.axes[name] for name in sweep.axes)
            sweep.results[coordinate] = outcome.result
        else:
            sweep.failures.append(PointFailure(
                label=point.label, axes=dict(point.axes),
                error=outcome.error or "", attempts=outcome.attempts,
                coordinates=point.describe()))
    return sweep
