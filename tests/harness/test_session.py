"""Session API: construction, the named-backend registry, env/args
constructors, lifecycle, and the session as the only way to pass an
execution context to a sweep entry point."""

from __future__ import annotations

import argparse
import inspect
import json
import pickle
import warnings

import pytest

from repro.architectures import TestbedConfig
from repro.core import figure7, figure8
from repro.harness import (
    ExecutionPolicy,
    ExperimentConfig,
    ProcessPoolBackend,
    ResultCache,
    ScenarioSet,
    SerialBackend,
    Session,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    run_scenarios,
    run_sweep,
    unregister_backend,
)
from repro.harness import runner


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


def one_point():
    return ScenarioSet().add_config(tiny_config())


# ---------------------------------------------------------------------------
# Construction and the named-backend registry
# ---------------------------------------------------------------------------

def test_named_backends_resolve():
    assert isinstance(Session(backend="serial").backend, SerialBackend)
    process = Session(backend="process", jobs=3)
    assert isinstance(process.backend, ProcessPoolBackend)
    assert process.backend.jobs == 3
    assert process.backend_name == "process"


def test_jobs_alone_picks_process_pool_else_serial():
    assert isinstance(Session(jobs=4).backend, ProcessPoolBackend)
    assert isinstance(Session(jobs=1).backend, SerialBackend)
    assert isinstance(Session().backend, SerialBackend)


def test_explicit_backend_instance_wins():
    backend = ProcessPoolBackend(2)
    session = Session(backend=backend, jobs=7)
    assert session.backend is backend
    assert session.backend_name is None


def test_session_validates_jobs_and_policy():
    with pytest.raises(ValueError, match="jobs"):
        Session(jobs=0)
    with pytest.raises(TypeError, match="ExecutionPolicy"):
        Session(policy={"retries": 2})
    with pytest.raises(ValueError, match="memory-only"):
        Session(cache=ResultCache())


def test_serial_backend_with_multiple_jobs_warns():
    with pytest.warns(RuntimeWarning, match="no effect"):
        Session(backend="serial", jobs=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Session(backend="serial", jobs=1)
        Session(backend="process", jobs=8)
    assert not [entry for entry in caught
                if issubclass(entry.category, RuntimeWarning)]


def test_unknown_backend_name_lists_registry():
    with pytest.raises(ValueError, match="unknown backend 'warp'"):
        Session(backend="warp")


def test_registry_round_trip_and_overwrite_guard():
    assert {"serial", "process"} <= set(backend_names())
    assert isinstance(resolve_backend("process"), ProcessPoolBackend)

    class RecordingBackend(SerialBackend):
        def __init__(self, jobs=None):
            self.jobs = jobs

    try:
        register_backend("recording", lambda jobs=None: RecordingBackend(jobs))
        assert "recording" in backend_names()
        built = create_backend("recording", jobs=5)
        assert isinstance(built, RecordingBackend) and built.jobs == 5
        assert isinstance(Session(backend="recording").backend,
                          RecordingBackend)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("recording", lambda jobs=None: RecordingBackend())
        register_backend("recording", lambda jobs=None: RecordingBackend(9),
                         overwrite=True)
        assert create_backend("recording").jobs == 9
    finally:
        unregister_backend("recording")
    assert "recording" not in backend_names()


def test_factory_must_return_an_execution_backend():
    try:
        register_backend("broken", lambda jobs=None: object())
        with pytest.raises(TypeError, match="ExecutionBackend"):
            create_backend("broken")
    finally:
        unregister_backend("broken")


def test_cache_path_is_opened_with_allow_stale(tmp_path):
    session = Session(cache=tmp_path / "cache", allow_stale=True)
    assert isinstance(session.cache, ResultCache)
    assert session.cache.allow_stale
    existing = ResultCache(str(tmp_path / "other"))
    assert Session(cache=existing).cache is existing
    assert Session().cache is None


def test_session_is_picklable():
    session = Session(backend="process", jobs=2,
                      policy=ExecutionPolicy(retries=1, on_error="record"))
    clone = pickle.loads(pickle.dumps(session))
    assert isinstance(clone.backend, ProcessPoolBackend)
    assert clone.policy == session.policy
    assert clone.backend_name == "process"


# ---------------------------------------------------------------------------
# Lifecycle: run, context manager, cache flush
# ---------------------------------------------------------------------------

def test_session_run_matches_run_scenarios():
    scenarios = one_point()
    [via_session] = Session().run(scenarios)
    [via_function] = run_scenarios(scenarios, session=Session())
    assert (json.dumps(via_session.result.to_json_dict(), sort_keys=True)
            == json.dumps(via_function.result.to_json_dict(), sort_keys=True))


def test_context_manager_flushes_cache_and_closes(tmp_path):
    path = tmp_path / "cache"
    with Session(cache=path) as session:
        [outcome] = session.run(one_point())
        assert outcome.ok and not outcome.cached
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.run(one_point())
    with pytest.raises(RuntimeError, match="closed"):
        run_scenarios(one_point(), session=session)
    with pytest.raises(RuntimeError, match="closed"):
        run_sweep(tiny_config(), {"consumers": [2]}, session=session)
    with pytest.raises(RuntimeError, match="closed"):
        with session:
            pass  # pragma: no cover - must not be reached

    # A fresh session over the same path serves the point from disk.
    with Session(cache=path) as reader:
        [cached] = reader.run(one_point())
    assert cached.cached


def test_session_progress_is_the_default_callback():
    seen = []
    session = Session(progress=lambda point: seen.append(point.label))
    session.run(one_point())
    assert seen == ["DTS"]
    # An explicit progress= per run overrides the session default.  The
    # run takes another point: the session would serve the first from
    # memory without calling any progress.
    explicit = []
    session.run(ScenarioSet().add_config(tiny_config(seed=2)),
                progress=lambda point: explicit.append(1))
    assert seen == ["DTS"] and explicit == [1]


# ---------------------------------------------------------------------------
# A session resolves each point once
# ---------------------------------------------------------------------------

#: Figures 7 and 8 on a small grid: Figure 8 is the broadcast_gather half
#: of Figure 7's grid, 9 of its 18 points.
BROADCAST_GRID = {"consumer_counts": (1, 2, 4), "messages_per_producer": 4}


def payload(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("backend, jobs", [("serial", None), ("process", 2)])
def test_figure8_is_served_from_figure7_points(backend, jobs):
    calls = []
    with Session(backend=backend, jobs=jobs,
                 progress=calls.append) as session:
        fig7 = figure7(session=session, **BROADCAST_GRID)
        simulated = len(calls)
        fig8 = figure8(session=session, **BROADCAST_GRID)
    assert simulated == 18
    assert len(calls) == simulated  # Figure 8 fired no progress
    gather = fig7.sweeps["broadcast_gather"].results
    shared = fig8.sweeps["Generic"].results
    assert len(shared) == 9
    for coordinate, result in shared.items():
        assert result is gather[coordinate], coordinate


def test_figure8_after_figure7_schedules_no_events(environments):
    with Session() as session:
        figure7(session=session, **BROADCAST_GRID)
        built = len(environments)
        events = sum(env._eid for env in environments)
        figure8(session=session, **BROADCAST_GRID)
    assert built == 18 and events > 0
    assert len(environments) == built
    assert sum(env._eid for env in environments) == events


def test_each_new_session_simulates_the_point_again():
    results = []
    for _ in range(2):
        calls = []
        with Session(progress=calls.append) as session:
            [first] = session.run(one_point())
            [again] = session.run(one_point())
        assert len(calls) == 1
        assert not first.cached and again.cached
        assert again.result is first.result
        assert session.cache is None and len(session.point_cache) == 0
        results.append(first.result)
    assert results[0] is not results[1]
    assert payload(results[0]) == payload(results[1])


def test_disk_cache_rebuilds_the_result_on_every_load(tmp_path):
    with Session(cache=tmp_path / "cache") as session:
        assert session.point_cache is session.cache
        [first] = session.run(one_point())
        [again] = session.run(one_point())
    assert again.cached and again.result is not first.result
    assert payload(again.result) == payload(first.result)


def test_a_failed_point_is_never_kept(monkeypatch):
    real = runner.execute_point
    attempts = []

    def fail_first(point):
        attempts.append(point)
        if len(attempts) == 1:
            raise RuntimeError("injected fault")
        return real(point)

    monkeypatch.setattr(runner, "execute_point", fail_first)
    session = Session(policy=ExecutionPolicy(on_error="record"))
    [failed] = session.run(one_point())
    [retried] = session.run(one_point())
    assert not failed.ok and "injected fault" in failed.error
    assert retried.ok and not retried.cached
    assert len(attempts) == 2


def test_describe_is_flat_and_json_safe(tmp_path):
    session = Session(backend="process", jobs=2, cache=tmp_path / "c",
                      policy=ExecutionPolicy(retries=1))
    info = session.describe()
    assert info["backend"] == "process" and info["jobs"] == 2
    assert info["policy"]["retries"] == 1
    json.dumps(info)  # flat dict, no live objects


# ---------------------------------------------------------------------------
# from_env / from_args
# ---------------------------------------------------------------------------

def test_from_env_reads_every_variable(tmp_path):
    session = Session.from_env({
        "REPRO_JOBS": "2",
        "REPRO_BACKEND": "process",
        "REPRO_CACHE": str(tmp_path / "cache"),
        "REPRO_ALLOW_STALE": "yes",
        "REPRO_TIMEOUT": "5.5",
        "REPRO_RETRIES": "3",
        "REPRO_BACKOFF": "0.25",
        "REPRO_ON_ERROR": "record",
    })
    assert isinstance(session.backend, ProcessPoolBackend)
    assert session.jobs == 2
    assert session.cache.allow_stale
    assert session.policy == ExecutionPolicy(timeout_s=5.5, retries=3,
                                             backoff_s=0.25,
                                             on_error="record")


def test_from_env_empty_is_default_session():
    session = Session.from_env({})
    assert isinstance(session.backend, SerialBackend)
    assert session.cache is None and session.policy is None


def test_from_env_rejects_bad_values():
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        Session.from_env({"REPRO_JOBS": "many"})
    with pytest.raises(ValueError, match="REPRO_ON_ERROR"):
        Session.from_env({"REPRO_ON_ERROR": "explode"})


def test_from_args_overlays_cli_on_env(tmp_path):
    # None = "not given on the command line" (the parser's sentinels).
    args = argparse.Namespace(jobs=4, backend=None, cache=None,
                              allow_stale=False, timeout=None, retries=None,
                              on_error=None)
    session = Session.from_args(args, environ={
        "REPRO_JOBS": "2",
        "REPRO_CACHE": str(tmp_path / "env-cache"),
        "REPRO_ON_ERROR": "record",
    })
    # CLI --jobs wins; unset CLI options inherit the environment.
    assert session.jobs == 4
    assert session.cache is not None
    assert session.policy.on_error == "record"


def test_from_args_explicit_defaults_still_override_env():
    """`--retries 0 --on-error raise` must beat REPRO_RETRIES/REPRO_ON_ERROR
    even though the values equal the library defaults."""
    args = argparse.Namespace(jobs=None, backend=None, cache=None,
                              allow_stale=False, timeout=None, retries=0,
                              on_error="raise")
    session = Session.from_args(args, environ={"REPRO_RETRIES": "3",
                                               "REPRO_ON_ERROR": "record"})
    assert session.policy is None  # fail-fast, exactly as asked


def test_from_args_without_execution_attrs_is_default():
    session = Session.from_args(argparse.Namespace(), environ={})
    assert isinstance(session.backend, SerialBackend)
    assert session.cache is None and session.policy is None


# ---------------------------------------------------------------------------
# Session is the only execution context an entry point accepts
# ---------------------------------------------------------------------------

def _entry_points():
    from repro.core import figures, study, tables
    from repro.harness import sweep

    functions = [run_scenarios, sweep.run_sweep,
                 study.compare_architectures, study.deployment_comparison,
                 tables.architecture_comparison_rows,
                 tables.architecture_comparison_text]
    functions += [getattr(figures, name) for name in figures.__all__
                  if name.startswith(("figure", "ablation_"))]
    return functions


def test_entry_points_take_session_and_no_legacy_keywords():
    functions = _entry_points()
    assert len(functions) == 19
    for function in functions:
        params = inspect.signature(function).parameters
        assert "session" in params, function.__qualname__
        assert not {"jobs", "backend", "cache", "policy"} & set(params), (
            function.__qualname__)


@pytest.mark.parametrize("keyword", ["jobs", "backend", "cache", "policy"])
def test_legacy_keyword_is_a_type_error(keyword):
    from repro.core import compare_architectures

    with pytest.raises(TypeError, match=keyword):
        run_scenarios(one_point(), **{keyword: None})
    with pytest.raises(TypeError, match=keyword):
        run_sweep(tiny_config(), {"consumers": [2]}, **{keyword: None})
    # Its **config_overrides pass the keyword on to ExperimentConfig,
    # which has no such field either.
    with pytest.raises(TypeError, match=keyword):
        compare_architectures(architectures=["DTS"], **{keyword: None})


def test_session_path_does_not_warn():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Session().run(one_point())
        run_scenarios(one_point(), session=Session())
    assert not [entry for entry in caught
                if issubclass(entry.category, DeprecationWarning)]
