"""Tests for the unified scenario runner, its backends and serialization."""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ExperimentResult,
    ProcessPoolBackend,
    ResultCache,
    ScenarioError,
    ScenarioPoint,
    ScenarioSet,
    SerialBackend,
    Session,
    resolve_backend,
    run_scenarios,
    run_sweep,
)
from repro.harness.runner import execute_point


def same_value(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def same_rows(rows_a, rows_b):
    """Row-list equality that treats NaN == NaN (infeasible/absent metrics)."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if row_a.keys() != row_b.keys():
            return False
        if not all(same_value(row_a[key], row_b[key]) for key in row_a):
            return False
    return True


def tiny_testbed():
    return TestbedConfig(producer_nodes=4, consumer_nodes=4)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=120.0,
        testbed=tiny_testbed(),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# ---------------------------------------------------------------------------
# ScenarioSet builders
# ---------------------------------------------------------------------------

def test_grid_orders_architecture_major():
    scenarios = ScenarioSet.product(tiny_config(), {
        "architecture": ["DTS", "MSS"], "consumers": [1, 2]})
    coords = [(p.label, p.axes["consumers"]) for p in scenarios]
    assert coords == [("DTS", 1), ("DTS", 2), ("MSS", 1), ("MSS", 2)]


def test_grid_spans_workloads_patterns_and_seeds():
    scenarios = ScenarioSet.product(tiny_config(), {
        "workload": ["Dstream", "Lstream"],
        "pattern": ["work_sharing", "work_sharing_feedback"],
        "seed": [1, 2]})
    assert len(scenarios) == 8  # 2 workloads x 2 patterns x 2 seeds
    assert {p.config.workload for p in scenarios} == {"Dstream", "Lstream"}
    assert {p.config.seed for p in scenarios} == {1, 2}


def test_grid_equal_producers_scales_producers_with_consumers():
    scenarios = ScenarioSet.product(tiny_config(), {"consumers": [4]})
    assert scenarios[0].config.num_producers == 4


def test_deployment_points_derive_distinct_seeds():
    scenarios = ScenarioSet.deployments(["DTS", "PRS(HAProxy)", "MSS"])
    seeds = [p.config.seed for p in scenarios]
    assert len(set(seeds)) == 3
    assert all(p.kind == "deployment" for p in scenarios)


def test_point_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ScenarioPoint(config=tiny_config(), kind="nonsense")


def test_point_cache_key_tracks_config_content():
    a = ScenarioPoint(config=tiny_config())
    b = ScenarioPoint(config=tiny_config())
    c = ScenarioPoint(config=tiny_config(seed=7))
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != c.cache_key()


# ---------------------------------------------------------------------------
# Backends: determinism and error propagation
# ---------------------------------------------------------------------------

def test_scenario_points_are_picklable():
    point = ScenarioPoint(config=tiny_config(), axes={"consumers": 2})
    clone = pickle.loads(pickle.dumps(point))
    assert clone.config == point.config
    assert clone.axes == point.axes


def test_resolve_backend_prefers_explicit_then_jobs():
    serial = SerialBackend()
    assert resolve_backend(serial, jobs=8) is serial
    assert isinstance(resolve_backend(None, jobs=4), ProcessPoolBackend)
    assert isinstance(resolve_backend(None, jobs=1), SerialBackend)
    assert isinstance(resolve_backend(None, None), SerialBackend)


def test_pool_results_bit_identical_to_serial():
    axes = {"architecture": ["DTS", "MSS"], "consumers": [1, 2]}
    serial = run_sweep(tiny_config(), axes)
    pooled = run_sweep(tiny_config(), axes, session=Session(jobs=2))
    assert serial.rows() == pooled.rows()
    assert same_rows(serial.rows("median_rtt_s"), pooled.rows("median_rtt_s"))


def test_pool_preserves_submission_order():
    scenarios = ScenarioSet.product(tiny_config(), {
        "architecture": ["DTS", "MSS"], "consumers": [1, 2]})
    outcomes = run_scenarios(
        scenarios, session=Session(backend=ProcessPoolBackend(2)))
    coords = [(o.point.label, o.point.axes["consumers"]) for o in outcomes]
    assert coords == [("DTS", 1), ("DTS", 2), ("MSS", 1), ("MSS", 2)]


def test_infeasible_point_is_a_result_not_an_error():
    config = tiny_config(architecture="PRS(Stunnel)", num_producers=32,
                         num_consumers=32,
                         testbed=TestbedConfig(producer_nodes=16,
                                               consumer_nodes=16))
    [outcome] = run_scenarios([ScenarioPoint(config=config)])
    assert not outcome.result.feasible
    assert "16" in outcome.result.infeasible_reason


def _crashing_point():
    # An unknown architecture option blows up inside the worker (TypeError
    # from the factory), exercising error propagation rather than the
    # infeasibility path.
    config = tiny_config()
    config.architecture_options["no_such_option"] = True
    return ScenarioPoint(config=config)


def test_serial_backend_propagates_point_errors():
    with pytest.raises(ScenarioError, match="DTS"):
        run_scenarios([_crashing_point()])


def test_pool_backend_propagates_point_errors():
    points = [ScenarioPoint(config=tiny_config()), _crashing_point()]
    with pytest.raises(ScenarioError, match="DTS"):
        run_scenarios(points, session=Session(backend=ProcessPoolBackend(2)))


def test_execute_point_deployment_returns_report():
    point = ScenarioSet.deployments(["MSS"])[0]
    report = execute_point(point)
    assert report.architecture == "MSS"
    assert report.data_path_hops > 0


# ---------------------------------------------------------------------------
# Pickle / JSON round-trips
# ---------------------------------------------------------------------------

def test_config_json_round_trip_is_exact():
    config = tiny_config(architecture="PRS(HAProxy)", runs=2, seed=9)
    payload = json.loads(json.dumps(config.to_json_dict()))
    assert ExperimentConfig.from_json_dict(payload) == config


def test_config_pickle_round_trip_is_exact():
    config = tiny_config(seed=5)
    assert pickle.loads(pickle.dumps(config)) == config


def _one_result():
    [outcome] = run_scenarios(
        [ScenarioPoint(config=tiny_config(pattern="work_sharing_feedback",
                                          messages_per_producer=6))])
    return outcome.result


def test_experiment_result_json_round_trip_preserves_metrics():
    result = _one_result()
    payload = json.loads(json.dumps(result.to_json_dict()))
    clone = ExperimentResult.from_json_dict(payload)
    assert clone.throughput_msgs_per_s == result.throughput_msgs_per_s
    assert clone.median_rtt_s == result.median_rtt_s
    assert clone.rtt_samples.tolist() == result.rtt_samples.tolist()
    assert clone.as_row() == result.as_row()


def test_experiment_result_pickle_round_trip_preserves_metrics():
    result = _one_result()
    clone = pickle.loads(pickle.dumps(result))
    assert clone.throughput_msgs_per_s == result.throughput_msgs_per_s
    assert clone.as_row() == result.as_row()


def test_infeasible_result_json_round_trip():
    config = tiny_config(architecture="PRS(Stunnel)", num_producers=32,
                         num_consumers=32,
                         testbed=TestbedConfig(producer_nodes=16,
                                               consumer_nodes=16))
    [outcome] = run_scenarios([ScenarioPoint(config=config)])
    payload = json.loads(json.dumps(outcome.result.to_json_dict()))
    clone = ExperimentResult.from_json_dict(payload)
    assert not clone.feasible
    assert clone.infeasible_reason == outcome.result.infeasible_reason
    assert math.isnan(clone.throughput_msgs_per_s)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

def test_cache_round_trip_and_reuse(tmp_path):
    path = str(tmp_path / "cache.json")
    point = ScenarioPoint(config=tiny_config())

    cache = ResultCache(path)
    [first] = run_scenarios([point], session=Session(cache=cache))
    assert not first.cached
    assert point in cache

    reloaded = ResultCache(path)
    [second] = run_scenarios([point], session=Session(cache=reloaded))
    assert second.cached
    assert same_rows([second.result.as_row()], [first.result.as_row()])


def test_cached_sweep_matches_fresh_sweep(tmp_path):
    path = str(tmp_path / "sweep.json")
    axes = {"architecture": ["DTS"], "consumers": [1, 2]}
    fresh = run_sweep(tiny_config(), axes, session=Session(cache=path))
    cached = run_sweep(tiny_config(), axes, session=Session(cache=path))
    assert fresh.rows() == cached.rows()


def test_cache_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad"
    path.mkdir()
    (path / "ab.json").write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(ValueError, match="version"):
        ResultCache(str(path))
