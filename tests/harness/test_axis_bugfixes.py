"""Regression tests for the scenario-grid satellite fixes: options leaks,
empty axes, progress axes, jobs validation, run_seed bounds, thread
fallback.  The grid is built with ScenarioSet.product."""

from __future__ import annotations

import threading

import pytest

from repro.architectures import TestbedConfig
from repro.cli import build_parser
from repro.harness import (
    ExperimentConfig,
    ScenarioPoint,
    ScenarioSet,
    run_scenarios,
    run_sweep,
)
from repro.harness.runner import _call_with_timeout


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=120.0,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


# ---------------------------------------------------------------------------
# grid: architecture_options must not leak across the architecture axis
# ---------------------------------------------------------------------------

def test_grid_does_not_leak_base_options_into_other_architectures():
    base = tiny_config(architecture="PRS(HAProxy)",
                       architecture_options={"num_connections": 2})
    scenarios = ScenarioSet.product(base, {
        "architecture": ["PRS(HAProxy)", "DTS", "MSS"]})
    by_label = {p.label: p.config.architecture_options for p in scenarios}
    assert by_label["PRS(HAProxy)"] == {"num_connections": 2}
    assert by_label["DTS"] == {}
    assert by_label["MSS"] == {}
    # End to end: a leaked PRS option would crash the DTS factory with an
    # unexpected-keyword TypeError.
    outcomes = run_scenarios(scenarios)
    assert [o.point.label for o in outcomes] == ["PRS(HAProxy)", "DTS", "MSS"]
    assert all(o.ok for o in outcomes)


def test_grid_base_architecture_keeps_its_own_options():
    base = tiny_config(architecture="PRS(HAProxy)",
                       architecture_options={"num_connections": 4})
    [point] = ScenarioSet.product(base, {"seed": [1]})
    assert point.config.architecture_options == {"num_connections": 4}


def test_deployments_do_not_leak_base_options_either():
    base = ExperimentConfig(architecture="PRS(HAProxy)",
                            architecture_options={"num_connections": 2},
                            testbed=TestbedConfig(producer_nodes=2,
                                                  consumer_nodes=2))
    scenarios = ScenarioSet.deployments(["DTS", "MSS"], base)
    assert all(p.config.architecture_options == {} for p in scenarios)


# ---------------------------------------------------------------------------
# grid: explicitly empty axes fail loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("axis", [
    "architecture", "workload", "pattern", "consumers", "seed"],
    ids=["architectures", "workloads", "patterns", "consumer_counts", "seeds"])
def test_grid_rejects_explicitly_empty_axis(axis):
    with pytest.raises(ValueError, match=f"axis '{axis}'.*empty"):
        ScenarioSet.product(tiny_config(), {axis: []})


# ---------------------------------------------------------------------------
# Sweep progress: each point with its full axes dict
# ---------------------------------------------------------------------------

def test_consumer_sweep_progress_receives_full_axes():
    seen = []
    run_sweep(tiny_config(), {"architecture": ["DTS"], "consumers": [1, 2]},
              progress=lambda point: seen.append(point))
    assert [(point.label, point.axes["consumers"]) for point in seen] == [
        ("DTS", 1), ("DTS", 2)]
    for point in seen:
        assert point.axes == {"architecture": "DTS",
                              "consumers": point.config.num_consumers}


# ---------------------------------------------------------------------------
# run_seed: derivation bounds
# ---------------------------------------------------------------------------

def test_runs_at_or_above_1000_rejected():
    with pytest.raises(ValueError, match="1000"):
        tiny_config(runs=1000)
    config = tiny_config(runs=999)
    assert config.run_seed(998) == 1998
    # Root seeds own disjoint 1000-slot ranges: no collision is possible.
    assert tiny_config(seed=1).run_seed(999) < tiny_config(seed=2).run_seed(0)


# ---------------------------------------------------------------------------
# CLI: --jobs must be >= 1 everywhere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["compare", "--jobs", "0"],
    ["sweep", "--jobs", "0"],
    ["figure", "fig4", "--jobs", "-2"],
    ["deployment", "--jobs", "0"],
    ["sensitivity", "--axis", "seed=1,2", "--jobs", "0"],
])
def test_cli_rejects_non_positive_jobs(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_accepts_positive_jobs():
    args = build_parser().parse_args(["sweep", "--jobs", "2"])
    assert args.jobs == 2


# ---------------------------------------------------------------------------
# _call_with_timeout: no-SIGALRM / worker-thread fallback
# ---------------------------------------------------------------------------

def test_call_with_timeout_runs_unbounded_off_the_main_thread():
    """Off the main thread SIGALRM cannot be armed: the attempt must run
    to completion (unbounded) instead of crashing or timing out."""
    point = ScenarioPoint(config=tiny_config(messages_per_producer=3))
    outcome: dict = {}

    def worker():
        try:
            # A timeout far below the run time: on the main thread this
            # would raise PointTimeout; in a worker thread it must not.
            outcome["result"] = _call_with_timeout(point, 1e-6)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            outcome["error"] = exc

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert "error" not in outcome, f"fallback raised: {outcome.get('error')}"
    assert outcome["result"].feasible
