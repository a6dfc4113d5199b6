"""Integration tests for the experiment runner and consumer sweeps."""

from __future__ import annotations

import math

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    Experiment,
    ExperimentConfig,
    run_experiment,
    run_sweep,
)


def tiny_testbed():
    return TestbedConfig(producer_nodes=4, consumer_nodes=4)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=10,
        max_sim_time_s=120.0,
        testbed=tiny_testbed(),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def test_run_experiment_averages_multiple_runs():
    result = run_experiment(tiny_config(runs=2))
    assert len(result.runs) == 2
    assert result.feasible
    assert result.throughput_msgs_per_s > 0
    assert all(run.completed for run in result.runs)


def test_run_experiment_accepts_keyword_overrides():
    result = run_experiment(tiny_config(), messages_per_producer=5)
    assert result.runs[0].published == 10  # 2 producers x 5 messages


def test_runs_are_reproducible_with_same_seed():
    a = Experiment(tiny_config(seed=3)).run_single(0)
    b = Experiment(tiny_config(seed=3)).run_single(0)
    assert a.throughput_msgs_per_s == pytest.approx(b.throughput_msgs_per_s)
    assert a.duration_s == pytest.approx(b.duration_s)


def test_different_seeds_change_jitter():
    a = Experiment(tiny_config(seed=3)).run_single(0)
    b = Experiment(tiny_config(seed=4)).run_single(0)
    # Jitter differs, so durations should not be bit-identical.
    assert a.duration_s != b.duration_s


def test_prs_stunnel_infeasible_at_32_consumers():
    config = tiny_config(architecture="PRS(Stunnel)", num_producers=32,
                         num_consumers=32,
                         testbed=TestbedConfig(producer_nodes=16, consumer_nodes=16))
    result = Experiment(config).run_single(0)
    assert not result.feasible
    assert "16" in result.infeasible_reason
    assert result.consumed == 0


def test_prs_stunnel_feasible_at_16_consumers():
    config = tiny_config(architecture="PRS(Stunnel)", num_producers=16,
                         num_consumers=16, messages_per_producer=2,
                         testbed=TestbedConfig(producer_nodes=16, consumer_nodes=16))
    result = Experiment(config).run_single(0)
    assert result.feasible
    assert result.completed


def consumer_sweep(base, architectures, consumer_counts):
    return run_sweep(base, {"architecture": architectures,
                            "consumers": consumer_counts})


def test_sweep_collects_all_points_and_series():
    base = tiny_config(messages_per_producer=6)
    sweep = consumer_sweep(base, ["DTS", "MSS"], [1, 2])
    assert sweep.axes["architecture"] == ("DTS", "MSS")
    dts_series = sweep.series("consumers", architecture="DTS")
    assert [c for c, _ in dts_series] == [1, 2]
    assert all(v > 0 for _, v in dts_series)
    rows = sweep.rows()
    assert len(rows) == 4
    assert sweep.get("DTS", 1) is not None
    assert sweep.get("DTS", 99) is None


def test_sweep_equal_producers_scaling():
    base = tiny_config(messages_per_producer=4)
    sweep = consumer_sweep(base, ["DTS"], [1, 4])
    result = sweep.get("DTS", 4)
    assert result.num_producers == 4
    assert result.num_consumers == 4


def test_sweep_series_skips_infeasible_points():
    base = tiny_config(architecture="PRS(Stunnel)", messages_per_producer=2,
                       testbed=TestbedConfig(producer_nodes=16, consumer_nodes=16))
    sweep = consumer_sweep(base, ["PRS(Stunnel)"], [1, 32])
    series = sweep.series("consumers", architecture="PRS(Stunnel)")
    assert [c for c, _ in series] == [1]
    rows = sweep.rows()
    infeasible = [r for r in rows if r["consumers"] == 32][0]
    assert infeasible["feasible"] is False
    assert math.isnan(infeasible["throughput_msgs_per_s"])


def test_architecture_ordering_dts_fastest_on_small_sweep():
    base = tiny_config(messages_per_producer=8)
    sweep = consumer_sweep(base, ["DTS", "PRS(HAProxy)", "MSS"], [4])
    dts = sweep.get("DTS", 4).throughput_msgs_per_s
    prs = sweep.get("PRS(HAProxy)", 4).throughput_msgs_per_s
    mss = sweep.get("MSS", 4).throughput_msgs_per_s
    assert dts > prs
    assert dts > mss


def test_mss_feedback_rtt_overhead_vs_dts():
    """The paper's headline RTT result: MSS >> DTS, PRS close to DTS."""
    counts = dict(num_producers=4, num_consumers=4)
    base = tiny_config(pattern="work_sharing_feedback", messages_per_producer=8,
                       **counts)
    dts = Experiment(base).run_single(0)
    mss = Experiment(base.with_architecture("MSS")).run_single(0)
    prs = Experiment(base.with_architecture("PRS(HAProxy)")).run_single(0)
    assert mss.median_rtt_s > dts.median_rtt_s
    assert prs.median_rtt_s < mss.median_rtt_s
