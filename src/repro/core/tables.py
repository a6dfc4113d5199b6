"""Regenerate the paper's tables.

* :func:`table1_rows` — Table 1, the streaming characteristics of the
  Deleria (Dstream), LCLS (Lstream) and generic workloads, produced from the
  workload specifications themselves.
* :func:`architecture_comparison_rows` — the qualitative §2/§6 comparison of
  the three architectures (hops, firewall rules, exposed ports, admin/user
  steps, security exposure, multi-user scalability), produced by actually
  deploying each architecture on the emulated testbed and reading its
  :class:`~repro.architectures.deployment.DeploymentReport`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..architectures import TestbedConfig
from ..harness import Session
from ..metrics import format_table
from ..workloads import WORKLOADS
from .study import PAPER_ARCHITECTURES, deployment_comparison

__all__ = [
    "TABLE1_COLUMNS",
    "table1_rows",
    "table1_text",
    "architecture_comparison_rows",
    "architecture_comparison_text",
]

#: Column order matching Table 1 in the paper.
TABLE1_COLUMNS = (
    "characteristic",
    "Deleria",
    "LCLS",
    "Generic",
)

#: Mapping from Table 1 row labels to WorkloadSpec.table_row() keys.
_TABLE1_ROWS = (
    ("Payload size", "payload_size"),
    ("Payload format", "payload_format"),
    ("Payload element", "payload_element"),
    ("Data packaging", "data_packaging"),
    ("Data rate", "data_rate"),
    ("Consumption parallelism", "consumption_parallelism"),
    ("Production parallelism", "production_parallelism"),
)

#: Table 1 columns come from these workloads (Deleria=Dstream, LCLS=Lstream).
_TABLE1_WORKLOADS = (("Deleria", "Dstream"), ("LCLS", "Lstream"),
                     ("Generic", "Generic"))


def table1_rows() -> list[dict]:
    """Table 1 as a list of rows (one per streaming characteristic)."""
    per_workload = {label: WORKLOADS[name].table_row()
                    for label, name in _TABLE1_WORKLOADS}
    rows = []
    for label, key in _TABLE1_ROWS:
        row = {"characteristic": label}
        for workload_label, _ in _TABLE1_WORKLOADS:
            row[workload_label] = per_workload[workload_label][key]
        rows.append(row)
    return rows


def table1_text() -> str:
    """Table 1 rendered as an ASCII table."""
    return format_table(table1_rows(), columns=TABLE1_COLUMNS,
                        title="Table 1: Data streaming characteristics "
                              "(Deleria, LCLS, Generic)")


def architecture_comparison_rows(
        architectures: Sequence[str] = ("DTS", "PRS(HAProxy)", "MSS"), *,
        testbed_config: Optional[TestbedConfig] = None,
        session: Optional[Session] = None) -> list[dict]:
    """Qualitative architecture comparison derived from real deployments.

    The deployments run through the unified scenario runner under
    ``session``, so a parallel session deploys the architectures
    concurrently and its policy adds a per-deployment timeout.
    """
    reports = deployment_comparison(architectures, testbed_config=testbed_config,
                                    session=session)
    return [report.as_row() for report in reports.values()]


def architecture_comparison_text(
        architectures: Sequence[str] = ("DTS", "PRS(HAProxy)", "MSS"), *,
        testbed_config: Optional[TestbedConfig] = None,
        session: Optional[Session] = None) -> str:
    rows = architecture_comparison_rows(architectures,
                                        testbed_config=testbed_config,
                                        session=session)
    return format_table(rows, title="Architecture deployment comparison "
                                    "(derived from deployed objects)")
