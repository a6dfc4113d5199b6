"""Tests for the comparative-study API, tables, figures and the CLI."""

from __future__ import annotations

import math

import pytest

from repro.architectures import TestbedConfig
from repro.cli import build_parser, main
from repro.core import (
    architecture_comparison_rows,
    compare_architectures,
    comparison_rows,
    deployment_comparison,
    figure4,
    figure5,
    figure7,
    overheads,
    table1_rows,
    table1_text,
)

TINY_TESTBED = TestbedConfig(producer_nodes=4, consumer_nodes=4)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def test_table1_rows_match_paper_values():
    rows = {row["characteristic"]: row for row in table1_rows()}
    assert rows["Payload size"]["Deleria"] == "16.0 KiB"
    assert rows["Payload size"]["LCLS"] == "1.0 MiB"
    assert rows["Payload size"]["Generic"] == "4.0 MiB"
    assert rows["Payload format"]["LCLS"] == "HDF5"
    assert rows["Data packaging"]["Generic"] == "One item/msg"
    assert rows["Data rate"]["Deleria"] == "32 Gbps"
    assert rows["Data rate"]["LCLS"] == "30 Gbps"
    assert rows["Data rate"]["Generic"] == "25 Gbps"
    assert rows["Production parallelism"]["Deleria"] == "Parallel (non-MPI)"
    assert rows["Production parallelism"]["LCLS"] == "Parallel (MPI-based)"


def test_table1_text_renders():
    text = table1_text()
    assert "Table 1" in text
    assert "Deleria" in text and "LCLS" in text and "Generic" in text


# ---------------------------------------------------------------------------
# Deployment comparison
# ---------------------------------------------------------------------------

def test_deployment_comparison_reports_all_architectures():
    reports = deployment_comparison(["DTS", "PRS(HAProxy)", "MSS"],
                                    testbed_config=TINY_TESTBED)
    assert set(reports) == {"DTS", "PRS(HAProxy)", "MSS"}
    assert reports["DTS"].data_path_hops < reports["MSS"].data_path_hops
    assert reports["MSS"].multi_user_scalability > reports["DTS"].multi_user_scalability


def test_architecture_comparison_rows_have_axes():
    rows = architecture_comparison_rows(["DTS", "MSS"], testbed_config=TINY_TESTBED)
    assert len(rows) == 2
    assert all("firewall_rules" in row for row in rows)


# ---------------------------------------------------------------------------
# compare_architectures
# ---------------------------------------------------------------------------

def test_compare_architectures_overheads_relative_to_dts():
    comparison = compare_architectures(
        workload="Dstream", pattern="work_sharing", consumers=2,
        architectures=["DTS", "MSS"], messages_per_producer=8,
        testbed=TINY_TESTBED)
    [((), by_architecture)] = comparison.groups()
    assert set(by_architecture) == {"DTS", "MSS"}
    [entry] = overheads(by_architecture, "throughput_msgs_per_s")
    assert entry.architecture == "MSS"
    assert entry.factor > 1.0
    rows = comparison_rows(comparison)
    dts_row = [r for r in rows if r["architecture"] == "DTS"][0]
    assert dts_row["throughput_overhead_vs_dts"] == 1.0


def test_compare_architectures_broadcast_uses_single_producer():
    comparison = compare_architectures(
        workload="Generic", pattern="broadcast_gather", consumers=2,
        architectures=["DTS"], messages_per_producer=3, testbed=TINY_TESTBED)
    result = comparison.get("DTS")
    assert result.num_producers == 1
    assert result.feasible
    assert result.median_rtt_s > 0
    [((), by_architecture)] = comparison.groups()
    # Only the baseline is present, so there is nothing to compare.
    assert overheads(by_architecture, "median_rtt_s") == []


# ---------------------------------------------------------------------------
# Figures (small instances)
# ---------------------------------------------------------------------------

def test_figure4_structure_and_ordering():
    data = figure4(workloads=("Dstream",), architectures=("DTS", "MSS"),
                   consumer_counts=(1, 2), messages_per_producer=6,
                   testbed=TINY_TESTBED)
    assert data.figure == "figure4"
    sweep = data.sweeps["Dstream"]
    series_dts = sweep.series("consumers", architecture="DTS")
    series_mss = sweep.series("consumers", architecture="MSS")
    assert [c for c, _ in series_dts] == [1, 2]
    # DTS outperforms MSS at every measured point (paper Figure 4).
    for (c1, dts_value), (c2, mss_value) in zip(series_dts, series_mss):
        assert c1 == c2
        assert dts_value > mss_value
    assert len(data.rows) == 4


def test_figure5_produces_cdfs():
    data = figure5(workloads=("Dstream",), architectures=("DTS",),
                   consumer_counts=(1,), messages_per_producer=6,
                   testbed=TINY_TESTBED)
    cdfs = data.cdfs["Dstream"][1]
    assert "DTS" in cdfs
    x, p = cdfs["DTS"]
    assert len(x) == len(p) > 0
    assert p[-1] == pytest.approx(1.0)


def test_figure7_has_both_panels():
    data = figure7(architectures=("DTS",), consumer_counts=(1, 2),
                   messages_per_producer=3, testbed=TINY_TESTBED)
    assert "broadcast" in data.sweeps
    assert "broadcast_gather" in data.sweeps
    panels = {row["panel"] for row in data.rows}
    assert panels == {"a-throughput", "b-median-rtt"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.command == "table1"
    args = parser.parse_args(["figure", "fig4", "--messages", "5"])
    assert args.name == "fig4"


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Payload size" in out


def test_cli_experiment_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "result.csv"
    code = main(["experiment", "--architecture", "DTS", "--consumers", "1",
                 "--messages", "5", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Experiment result" in out
    assert csv_path.exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
