"""Unit tests for the metric calculators and exporters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.metrics import (
    compute_rtt,
    compute_throughput,
    empirical_cdf,
    format_table,
    format_value,
    overhead_factor,
    overhead_table,
    percentile,
    summarize,
    to_csv,
    write_csv,
)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_summarize_basic():
    stats = summarize([1, 2, 3, 4, 5])
    assert stats.count == 5
    assert stats.mean == 3
    assert stats.median == 3
    assert stats.minimum == 1 and stats.maximum == 5
    assert stats.p10 <= stats.median <= stats.p90 <= stats.p99
    assert stats.as_dict()["count"] == 5


def test_summarize_empty_is_nan():
    stats = summarize([])
    assert stats.count == 0
    assert math.isnan(stats.mean)


def test_percentile_helper():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert math.isnan(percentile([], 50))


def test_empirical_cdf_properties():
    rng = np.random.default_rng(0)
    values = rng.exponential(2.0, size=1000)
    x, p = empirical_cdf(values, points=100)
    assert len(x) <= 100
    assert np.all(np.diff(x) >= 0)
    assert np.all(np.diff(p) >= 0)
    assert p[-1] == pytest.approx(1.0)
    # Median should sit near probability 0.5.
    median = np.median(values)
    idx = np.searchsorted(x, median)
    assert 0.4 <= p[min(idx, len(p) - 1)] <= 0.6


def test_empirical_cdf_empty_and_small():
    x, p = empirical_cdf([])
    assert x.size == 0 and p.size == 0
    x, p = empirical_cdf([3.0], points=10)
    assert list(x) == [3.0] and list(p) == [1.0]


# ---------------------------------------------------------------------------
# throughput
# ---------------------------------------------------------------------------

def test_compute_throughput_basic():
    result = compute_throughput(messages=1000, payload_bytes=1000 * 16384,
                                first_publish_s=10.0, last_consume_s=12.0)
    assert result.msgs_per_s == pytest.approx(500.0)
    assert result.duration_s == pytest.approx(2.0)
    assert result.gbits_per_s == pytest.approx(1000 * 16384 * 8 / 2 / 1e9)
    assert result.as_dict()["messages"] == 1000


def test_compute_throughput_zero_cases():
    assert compute_throughput(messages=0, payload_bytes=0,
                              first_publish_s=0, last_consume_s=10).msgs_per_s == 0.0
    assert compute_throughput(messages=5, payload_bytes=10,
                              first_publish_s=5, last_consume_s=5).msgs_per_s == 0.0


def test_compute_throughput_rejects_negative():
    with pytest.raises(ValueError):
        compute_throughput(messages=-1, payload_bytes=0,
                           first_publish_s=0, last_consume_s=1)


# ---------------------------------------------------------------------------
# RTT
# ---------------------------------------------------------------------------

def test_compute_rtt_summary_and_cdf():
    samples = [0.01, 0.02, 0.03, 0.04, 0.10]
    result = compute_rtt(samples)
    assert result.count == 5
    assert result.median_s == pytest.approx(0.03)
    assert result.fraction_under(0.05) == pytest.approx(0.8)
    assert result.as_dict()["median_s"] == pytest.approx(0.03)


def test_compute_rtt_empty():
    result = compute_rtt([])
    assert result.count == 0
    assert math.isnan(result.median_s)
    assert math.isnan(result.fraction_under(1.0))


# ---------------------------------------------------------------------------
# Overhead
# ---------------------------------------------------------------------------

def test_overhead_factor_throughput_and_rtt_conventions():
    # Throughput: baseline 100, other 50 -> 2x overhead.
    assert overhead_factor(100, 50, higher_is_better=True) == pytest.approx(2.0)
    # RTT: baseline 0.02s, other 0.138s -> 6.9x overhead (paper's MSS figure).
    assert overhead_factor(0.02, 0.138, higher_is_better=False) == pytest.approx(6.9)
    assert math.isnan(overhead_factor(0, 1, higher_is_better=True))
    assert math.isnan(overhead_factor(1, float("nan"), higher_is_better=True))


def test_overhead_table_excludes_baseline():
    values = {"DTS": 100.0, "PRS(HAProxy)": 50.0, "MSS": 40.0}
    rows = overhead_table(values, baseline="DTS", metric="throughput",
                          higher_is_better=True)
    names = [r.architecture for r in rows]
    assert "DTS" not in names
    factors = {r.architecture: r.factor for r in rows}
    assert factors["PRS(HAProxy)"] == pytest.approx(2.0)
    assert factors["MSS"] == pytest.approx(2.5)
    assert rows[0].as_dict()["baseline"] == "DTS"


def test_overhead_table_requires_baseline():
    with pytest.raises(KeyError):
        overhead_table({"MSS": 1.0}, baseline="DTS", metric="x", higher_is_better=True)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_format_value_variants():
    assert format_value(None) == "-"
    assert format_value(True) == "yes"
    assert format_value(float("nan")) == "n/a"
    assert format_value(0.0) == "0"
    assert format_value(123456.0) == "123,456"
    assert format_value(0.000001) == "1.00e-06"
    assert format_value("text") == "text"


def test_format_table_and_csv_round_trip(tmp_path):
    rows = [
        {"architecture": "DTS", "consumers": 1, "throughput": 4400.0},
        {"architecture": "MSS", "consumers": 1, "throughput": 1200.5},
    ]
    table = format_table(rows, title="Figure 4")
    assert "Figure 4" in table
    assert "DTS" in table and "MSS" in table
    csv_text = to_csv(rows)
    assert csv_text.splitlines()[0] == "architecture,consumers,throughput"
    assert len(csv_text.splitlines()) == 3
    path = tmp_path / "fig4.csv"
    write_csv(path, rows)
    assert path.read_text().startswith("architecture")


def test_format_table_empty():
    assert "(no data)" in format_table([], title="empty")
    assert to_csv([]) == ""
