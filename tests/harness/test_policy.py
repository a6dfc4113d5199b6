"""Crash-injection coverage for ExecutionPolicy (timeout/on_error)."""

from __future__ import annotations

import json
import time

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExecutionPolicy,
    ProcessPoolBackend,
    ScenarioError,
    ScenarioPoint,
    ScenarioSet,
    SerialBackend,
    Session,
    run_scenarios,
    run_sweep,
)
from repro.harness import runner as runner_module
from repro.harness.runner import execute_point


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
    return runner_module.ExperimentConfig(**params)


def result_payload(outcome) -> str:
    return json.dumps(outcome.result.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

def test_policy_validates_fields():
    with pytest.raises(ValueError, match="timeout_s"):
        ExecutionPolicy(timeout_s=0)
    with pytest.raises(ValueError, match="on_error"):
        ExecutionPolicy(on_error="explode")


def test_policy_is_picklable():
    import pickle
    policy = ExecutionPolicy(timeout_s=5.0, on_error="record")
    assert pickle.loads(pickle.dumps(policy)) == policy


# ---------------------------------------------------------------------------
# Timeout
# ---------------------------------------------------------------------------

def test_timed_out_point_becomes_structured_failure(monkeypatch):
    real = execute_point

    def hang_on_marker(point):
        if point.axes.get("hang"):
            time.sleep(30)
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", hang_on_marker)
    points = [
        ScenarioPoint(config=tiny_config(), axes={"consumers": 2}),
        ScenarioPoint(config=tiny_config(seed=2),
                      axes={"consumers": 2, "hang": True}),
    ]
    policy = ExecutionPolicy(timeout_s=0.2, on_error="record")
    start = time.monotonic()
    outcomes = run_scenarios(points, session=Session(policy=policy))
    assert time.monotonic() - start < 10
    assert outcomes[0].ok
    assert not outcomes[1].ok
    assert outcomes[1].result is None
    assert "PointTimeout" in outcomes[1].error
    assert "exceeded 0.2s" in outcomes[1].error


def test_timeout_does_not_leak_into_later_points(monkeypatch):
    real = execute_point

    def hang_on_marker(point):
        if point.axes.get("hang"):
            time.sleep(30)
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", hang_on_marker)
    points = [
        ScenarioPoint(config=tiny_config(), axes={"hang": True}),
        ScenarioPoint(config=tiny_config(seed=2), axes={}),
    ]
    policy = ExecutionPolicy(timeout_s=0.2, on_error="skip")
    outcomes = run_scenarios(points, session=Session(policy=policy))
    # The slow point is gone; the healthy one ran to completion untouched
    # by the previous point's alarm.
    assert [o.point.config.seed for o in outcomes] == [2]
    assert outcomes[0].ok


# ---------------------------------------------------------------------------
# on_error modes
# ---------------------------------------------------------------------------

def _seed_crasher(monkeypatch, bad_seed):
    real = execute_point

    def crash_on_seed(point):
        if point.config.seed == bad_seed:
            raise RuntimeError(f"injected crash for seed {bad_seed}")
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", crash_on_seed)


def test_on_error_skip_keeps_submission_order(monkeypatch):
    _seed_crasher(monkeypatch, bad_seed=2)
    points = [ScenarioPoint(config=tiny_config(seed=seed),
                            axes={"seed": seed})
              for seed in (1, 2, 3, 4)]
    outcomes = run_scenarios(
        points, session=Session(policy=ExecutionPolicy(on_error="skip")))
    assert [o.point.axes["seed"] for o in outcomes] == [1, 3, 4]
    assert all(o.ok for o in outcomes)


def test_on_error_record_reports_failure_in_place(monkeypatch):
    _seed_crasher(monkeypatch, bad_seed=3)
    points = [ScenarioPoint(config=tiny_config(seed=seed),
                            axes={"seed": seed})
              for seed in (1, 3, 5)]
    outcomes = run_scenarios(
        points, session=Session(policy=ExecutionPolicy(on_error="record")))
    assert [o.point.axes["seed"] for o in outcomes] == [1, 3, 5]
    assert [o.ok for o in outcomes] == [True, False, True]
    failed = outcomes[1]
    assert failed.result is None
    assert "injected crash for seed 3" in failed.error


def test_on_error_record_under_process_pool(monkeypatch):
    # fork start method: the patched execute_point is inherited by workers.
    _seed_crasher(monkeypatch, bad_seed=2)
    points = [ScenarioPoint(config=tiny_config(seed=seed),
                            axes={"seed": seed})
              for seed in (1, 2, 3, 4)]
    session = Session(backend=ProcessPoolBackend(2, start_method="fork"),
                      policy=ExecutionPolicy(on_error="record"))
    outcomes = run_scenarios(points, session=session)
    assert [o.point.axes["seed"] for o in outcomes] == [1, 2, 3, 4]
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert "injected crash for seed 2" in outcomes[1].error


def test_sweep_records_failures_instead_of_dying(monkeypatch):
    _seed_crasher(monkeypatch, bad_seed=1)  # every point in this sweep
    result = run_sweep(
        tiny_config(), {"architecture": ["DTS"], "consumers": [1, 2]},
        session=Session(policy=ExecutionPolicy(on_error="record")))
    assert result.results == {}
    assert len(result.failures) == 2
    rows = [failure.as_row() for failure in result.failures]
    assert rows[0]["architecture"] == "DTS"
    assert "injected crash" in rows[0]["error"]


def test_no_policy_still_raises_like_before(monkeypatch):
    _seed_crasher(monkeypatch, bad_seed=1)
    with pytest.raises(ScenarioError, match="failed: "):
        run_scenarios([ScenarioPoint(config=tiny_config())])


def test_backends_agree_on_policy_outcomes(monkeypatch):
    _seed_crasher(monkeypatch, bad_seed=3)
    scenarios = ScenarioSet.product(tiny_config(), {
        "architecture": ["DTS", "MSS"], "seed": [1, 3]})
    policy = ExecutionPolicy(on_error="skip")
    serial = run_scenarios(
        scenarios, session=Session(backend=SerialBackend(), policy=policy))
    pooled = run_scenarios(scenarios, session=Session(
        backend=ProcessPoolBackend(2, start_method="fork"), policy=policy))
    assert ([result_payload(o) for o in serial]
            == [result_payload(o) for o in pooled])
    assert [o.point.config.seed for o in serial] == [1, 1]


# ---------------------------------------------------------------------------
# Nested timers: the per-point alarm must not disarm an outer ITIMER_REAL
# ---------------------------------------------------------------------------

def _with_outer_itimer(outer_s: float, body):
    """Run ``body()`` with a caller-level SIGALRM handler + ITIMER_REAL
    armed, returning (body result, fired timestamps, remaining delay)."""
    import signal

    fired = []

    def outer_handler(signum, frame):
        fired.append(time.monotonic())

    previous_handler = signal.signal(signal.SIGALRM, outer_handler)
    signal.setitimer(signal.ITIMER_REAL, outer_s)
    try:
        result = body()
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        restored = signal.getsignal(signal.SIGALRM)
        return result, fired, remaining, restored, outer_handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)


def test_point_timeout_rearms_outer_itimer_with_remaining_time():
    """An outer watchdog timer survives a point's inner timeout: on the
    way out the inner alarm re-arms the outer timer minus elapsed time
    (the old code zeroed it, silently disarming the watchdog)."""
    point = ScenarioPoint(config=tiny_config())

    def body():
        return runner_module._call_with_timeout(point, 30.0)

    result, fired, remaining, restored, handler = _with_outer_itimer(
        60.0, body)
    assert result is not None
    assert not fired  # the outer timer did not fire early...
    assert 0 < remaining < 60.0  # ...and is still armed, minus elapsed
    assert restored is handler  # the outer handler came back too


def test_outer_itimer_expired_during_point_still_fires(monkeypatch):
    """If the outer deadline passes while the point runs, the outer
    handler fires (late) instead of never."""
    monkeypatch.setattr(runner_module, "execute_point",
                        lambda point: time.sleep(0.15) or "done")
    point = ScenarioPoint(config=tiny_config())

    def body():
        result = runner_module._call_with_timeout(point, 30.0)
        # The expired outer timer was re-armed with a near-zero delay;
        # give the signal a beat to be delivered.
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            time.sleep(0.01)
            if _outer_fired:
                break
        return result

    _outer_fired = []

    def outer_body():
        nonlocal _outer_fired
        import signal

        def outer_handler(signum, frame):
            _outer_fired.append(True)

        previous_handler = signal.signal(signal.SIGALRM, outer_handler)
        signal.setitimer(signal.ITIMER_REAL, 0.05)  # expires mid-point
        try:
            return body()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous_handler)

    assert outer_body() == "done"
    assert _outer_fired  # fired late, not lost
