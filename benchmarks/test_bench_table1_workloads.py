"""Table 1 — data streaming characteristics of the three workloads.

Regenerates Table 1 from the workload specifications and verifies the
values the paper tabulates (payload sizes, formats, packaging, rates and
parallelism modes).
"""

from __future__ import annotations

from repro.core import table1_rows, table1_text


def test_bench_table1():
    rows = table1_rows()
    table = {row["characteristic"]: row for row in rows}

    print()
    print(table1_text())

    assert table["Payload size"]["Deleria"] == "16.0 KiB"
    assert table["Payload size"]["LCLS"] == "1.0 MiB"
    assert table["Payload size"]["Generic"] == "4.0 MiB"
    assert table["Payload format"]["LCLS"] == "HDF5"
    assert table["Data packaging"]["Deleria"] == "8 events/msg"
    assert table["Data packaging"]["Generic"] == "One item/msg"
    assert table["Data rate"]["Deleria"] == "32 Gbps"
    assert table["Data rate"]["LCLS"] == "30 Gbps"
    assert table["Data rate"]["Generic"] == "25 Gbps"
    assert table["Production parallelism"]["Deleria"] == "Parallel (non-MPI)"
    assert table["Consumption parallelism"]["LCLS"] == "Parallel (MPI-based)"
