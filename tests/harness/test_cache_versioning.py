"""Cache fingerprinting, corruption recovery and incremental regeneration."""

from __future__ import annotations

import glob
import json
import os
import re

import pytest

from repro.architectures import TestbedConfig
from repro.cli import main
from repro.core import figure4
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ResultCache,
    ScenarioPoint,
    ScenarioSet,
    Session,
    code_fingerprint,
    run_scenarios,
)
from repro.harness import runner as runner_module
from repro.harness.runner import execute_point


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


def figure_kwargs():
    return dict(workloads=("Dstream",), architectures=("DTS", "MSS"),
                consumer_counts=(1, 2), messages_per_producer=4,
                testbed=tiny_testbed())


def rows_payload(rows) -> str:
    return json.dumps(rows, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Corrupt / truncated cache files
# ---------------------------------------------------------------------------

def _cache_with_shard(tmp_path, content: str):
    """A cache directory holding one shard file with ``content``."""
    path = tmp_path / "cache"
    path.mkdir(exist_ok=True)
    shard = path / "ab.json"
    shard.write_text(content)
    return path, shard


@pytest.mark.parametrize("content", [
    "{\"version\": 1, \"entries\": {\"trunc",  # truncated mid-write
    "not json at all",
    "[1, 2, 3]",                               # valid JSON, wrong shape
    "",                                        # zero-byte file
])
def test_corrupt_cache_is_quarantined_not_fatal(tmp_path, content):
    path, shard = _cache_with_shard(tmp_path, content)
    with pytest.warns(RuntimeWarning, match="corrupt"):
        cache = ResultCache(str(path))
    assert len(cache) == 0
    # The bad shard moved aside so the evidence survives...
    quarantined = glob.glob(str(shard) + ".corrupt*")
    assert len(quarantined) == 1
    assert open(quarantined[0]).read() == content
    # ...and the cache is fully usable: points recompute and persist.
    [outcome] = run_scenarios([ScenarioPoint(config=tiny_config())],
                              session=Session(cache=cache))
    assert not outcome.cached
    assert ResultCache(str(path)).load(
        ScenarioPoint(config=tiny_config())) is not None


def test_repeated_corruption_gets_distinct_quarantine_names(tmp_path):
    for _ in range(2):
        path, shard = _cache_with_shard(tmp_path, "garbage")
        with pytest.warns(RuntimeWarning):
            ResultCache(str(path))
    assert len(glob.glob(str(shard) + ".corrupt*")) == 2


def test_unknown_cache_version_still_raises(tmp_path):
    path, _ = _cache_with_shard(
        tmp_path, json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(ValueError, match="version"):
        ResultCache(str(path))


@pytest.mark.parametrize("version", [True, 1.0, "1"],
                         ids=["true", "float", "string"])
def test_a_version_that_is_not_the_integer_1_is_refused(tmp_path, capsys,
                                                        version):
    """Only the integer 1 is version 1: ``true`` and ``1.0`` compare equal
    to it, and a save would write them back as ``1``."""
    path, _ = _cache_with_shard(
        tmp_path, json.dumps({"version": version, "entries": {}}))
    named = re.escape(f"has version {version!r}")
    with pytest.raises(ValueError, match=named):
        ResultCache(str(path))
    assert main(["cache", "stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(named, err)


# ---------------------------------------------------------------------------
# Code fingerprinting
# ---------------------------------------------------------------------------

def test_code_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16
    int(code_fingerprint(), 16)  # hex


def _shard_files(path: str) -> list[str]:
    """Every shard file of a (directory-layout) cache."""
    return sorted(glob.glob(os.path.join(path, "??.json")))


def _cache_entries(path: str) -> dict:
    """All entries across a sharded cache's files."""
    entries: dict = {}
    for shard in _shard_files(path):
        entries.update(json.load(open(shard))["entries"])
    return entries


def _rewrite_entries(path: str, mutate) -> None:
    for shard in _shard_files(path):
        payload = json.load(open(shard))
        for entry in payload["entries"].values():
            mutate(entry)
        json.dump(payload, open(shard, "w"))


def _tamper_fingerprint(path: str) -> None:
    """Rewrite every entry as if an older repro source had produced it."""
    def age(entry):
        entry["fingerprint"] = "0" * 16
    _rewrite_entries(path, age)


def test_stale_fingerprint_invalidates_entry(tmp_path):
    path = str(tmp_path / "cache.json")
    point = ScenarioPoint(config=tiny_config())
    run_scenarios([point], session=Session(cache=ResultCache(path)))

    _tamper_fingerprint(path)
    cache = ResultCache(path)
    assert point not in cache
    assert cache.load(point) is None
    assert cache.stale_evicted == 1
    [outcome] = run_scenarios([point], session=Session(cache=cache))
    assert not outcome.cached  # recomputed, not served stale
    # The recomputed entry carries the current fingerprint again.
    entries = _cache_entries(path)
    assert [e["fingerprint"] for e in entries.values()] == [code_fingerprint()]


def test_allow_stale_serves_old_entries(tmp_path):
    path = str(tmp_path / "cache.json")
    point = ScenarioPoint(config=tiny_config())
    [fresh] = run_scenarios([point], session=Session(cache=ResultCache(path)))

    _tamper_fingerprint(path)
    cache = ResultCache(path, allow_stale=True)
    assert point in cache
    [served] = run_scenarios([point], session=Session(cache=cache))
    assert served.cached
    assert (json.dumps(served.result.to_json_dict(), sort_keys=True)
            == json.dumps(fresh.result.to_json_dict(), sort_keys=True))


def test_pre_fingerprint_entries_are_treated_as_stale(tmp_path):
    # PR-1-era caches have no "fingerprint" field at all.
    path = str(tmp_path / "cache.json")
    point = ScenarioPoint(config=tiny_config())
    run_scenarios([point], session=Session(cache=ResultCache(path)))

    def drop(entry):
        del entry["fingerprint"]
    _rewrite_entries(path, drop)
    assert ResultCache(path).load(point) is None
    assert ResultCache(path, allow_stale=True).load(point) is not None


# ---------------------------------------------------------------------------
# Incremental persistence: a killed sweep leaves completed points on disk
# ---------------------------------------------------------------------------

def test_mid_kill_leaves_completed_points_on_disk(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.json")
    points = [ScenarioPoint(config=tiny_config(seed=seed))
              for seed in (1, 2, 3, 4)]

    real = execute_point

    def die_on_third(point):
        if point.config.seed == 3:
            raise KeyboardInterrupt  # simulates kill: escapes the runner
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", die_on_third)
    # autosave_min_s=0: persist after every point so the test is exact
    # (the default throttles full-file rewrites to about one per second).
    cache = ResultCache(path, autosave_min_s=0.0)
    with pytest.raises(KeyboardInterrupt):
        run_scenarios(points, session=Session(cache=cache))

    # run_scenarios never reached its final save; the streaming autosave did.
    survivors = ResultCache(path)
    assert points[0] in survivors
    assert points[1] in survivors
    assert points[2] not in survivors


def test_interrupted_pool_sweep_resumes_from_partial_cache(tmp_path,
                                                           monkeypatch):
    """The acceptance scenario: kill a ProcessPoolBackend sweep midway,
    re-run with the cache, and the figure comes out bit-identical to a
    clean serial run while only the missing points execute."""
    clean = figure4(**figure_kwargs(), session=Session(backend="serial"))

    path = str(tmp_path / "cache.json")
    # The exact point grid figure4 builds internally (cache keys are content
    # hashes of the config, so the base must match figure4's base).
    from repro.core.figures import _base_config
    base = _base_config("Dstream", "work_sharing", messages_per_producer=4,
                        runs=1, seed=1, testbed=tiny_testbed())
    scenarios = ScenarioSet.product(base, {
        "architecture": ["DTS", "MSS"], "workload": ["Dstream"],
        "pattern": ["work_sharing"], "consumers": [1, 2]})

    interrupted = {"completed": 0}

    def interrupt_after_two(point):
        if interrupted["completed"] >= 2:
            raise KeyboardInterrupt
        interrupted["completed"] += 1

    pool = ProcessPoolBackend(2, start_method="fork")
    cache = ResultCache(path, autosave_min_s=0.0)
    with pytest.raises(KeyboardInterrupt):
        run_scenarios(scenarios, session=Session(backend=pool, cache=cache),
                      progress=interrupt_after_two)

    on_disk = ResultCache(path)
    assert 0 < len(on_disk) < len(scenarios)

    # Re-run the whole figure against the partial cache, counting real
    # executions via marker files (fork workers inherit the patch).
    marker_dir = tmp_path / "executed"
    marker_dir.mkdir()
    real = execute_point

    def marking_execute(point):
        (marker_dir / point.cache_key()).touch()
        return real(point)

    monkeypatch.setattr(runner_module, "execute_point", marking_execute)
    resumed = figure4(**figure_kwargs(),
                      session=Session(backend=pool, cache=path))

    executed = {os.path.basename(p) for p in glob.glob(str(marker_dir / "*"))}
    cached_keys = {point.cache_key() for point in scenarios
                   if point in on_disk}
    assert executed == {point.cache_key() for point in scenarios} - cached_keys
    assert rows_payload(resumed.rows) == rows_payload(clean.rows)


def test_incremental_figure_equals_from_scratch_figure(tmp_path):
    """Prime the cache with one figure, regenerate another sharing points:
    only the missing points run and the artifacts are byte-identical."""
    path = str(tmp_path / "cache.json")
    kwargs = figure_kwargs()
    from_scratch = figure4(**kwargs)
    primed = figure4(**kwargs, session=Session(cache=path))
    assert rows_payload(primed.rows) == rows_payload(from_scratch.rows)

    # Second regeneration: everything is served from the cache.
    again = figure4(**kwargs, session=Session(cache=path))
    assert rows_payload(again.rows) == rows_payload(from_scratch.rows)

    # A wider regeneration reuses the cached subset and only adds points.
    wider_kwargs = dict(kwargs, consumer_counts=(1, 2, 4))
    wider_cached = figure4(**wider_kwargs, session=Session(cache=path))
    wider_clean = figure4(**wider_kwargs)
    assert rows_payload(wider_cached.rows) == rows_payload(wider_clean.rows)
