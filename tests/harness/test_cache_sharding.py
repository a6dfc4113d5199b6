"""Sharded result-cache layout: shard files, the single-file refusal,
partial flushes."""

from __future__ import annotations

import glob
import json
import os
import warnings

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    ScenarioPoint,
    Session,
    code_fingerprint,
    run_scenarios,
)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=1,
        num_consumers=1,
        messages_per_producer=3,
        max_sim_time_s=120.0,
        testbed=TestbedConfig(producer_nodes=2, consumer_nodes=2),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def distinct_prefix_points(count: int = 2) -> list[ScenarioPoint]:
    """Points whose cache keys land in different shards."""
    points: dict[str, ScenarioPoint] = {}
    seed = 1
    while len(points) < count:
        point = ScenarioPoint(config=tiny_config(seed=seed))
        points.setdefault(point.cache_key()[:2], point)
        seed += 1
    return list(points.values())


def shard_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "??.json")))


def test_cache_writes_one_shard_per_key_prefix(tmp_path):
    path = str(tmp_path / "cache")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(path)))
    assert os.path.isdir(path)
    names = {os.path.basename(f) for f in shard_files(path)}
    assert names == {f"{p.cache_key()[:2]}.json" for p in points}
    for shard in shard_files(path):
        payload = json.load(open(shard))
        assert payload["version"] == 1
        for key in payload["entries"]:
            assert f"{key[:2]}.json" == os.path.basename(shard)


def test_flush_rewrites_only_dirty_shards(tmp_path):
    path = str(tmp_path / "cache")
    first, second = distinct_prefix_points(2)
    cache = ResultCache(path)
    run_scenarios([first], session=Session(cache=cache))
    first_shard = os.path.join(path, f"{first.cache_key()[:2]}.json")
    before = os.stat(first_shard).st_mtime_ns

    run_scenarios([second], session=Session(cache=cache))
    assert os.stat(first_shard).st_mtime_ns == before  # untouched
    assert os.path.exists(os.path.join(path,
                                       f"{second.cache_key()[:2]}.json"))


def test_single_file_cache_is_refused(tmp_path):
    """A cache is a directory of shards: a path that is a regular file
    (the pre-sharding layout) is refused and left untouched."""
    path = tmp_path / "cache.json"
    payload = json.dumps({"version": 1, "entries": {}})
    path.write_text(payload)
    with pytest.raises(ValueError, match="a result cache is a directory"
                       ) as refusal:
        ResultCache(str(path))
    assert str(path) in str(refusal.value)
    assert path.read_text() == payload


def test_corrupt_shard_is_quarantined_not_fatal(tmp_path):
    path = str(tmp_path / "cache")
    points = distinct_prefix_points(2)
    run_scenarios(points, session=Session(cache=ResultCache(path)))
    victim, survivor = shard_files(path)
    with open(victim, "w") as handle:
        handle.write("{\"version\": 1, \"entries\": {\"trunc")

    with pytest.warns(RuntimeWarning, match="corrupt"):
        cache = ResultCache(path)
    assert len(cache) == 1  # the intact shard still loads
    assert glob.glob(f"{victim}.corrupt*")
    assert os.path.exists(survivor)


def test_unknown_shard_version_still_raises(tmp_path):
    path = str(tmp_path / "cache")
    os.makedirs(path)
    with open(os.path.join(path, "ab.json"), "w") as handle:
        json.dump({"version": 99, "entries": {}}, handle)
    with pytest.raises(ValueError, match="version"):
        ResultCache(path)


def test_a_misfiled_entry_is_evicted_not_lost(tmp_path):
    """An entry read from a shard other than its key's own is evicted with
    a warning naming it and the file, not kept: a save of that shard would
    write it nowhere.  It is not moved to a shard of its own either."""
    path = str(tmp_path / "cache")
    home, stray = distinct_prefix_points(2)
    run_scenarios([home, stray], session=Session(cache=ResultCache(path)))
    home_shard = os.path.join(path, f"{home.cache_key()[:2]}.json")
    stray_shard = os.path.join(path, f"{stray.cache_key()[:2]}.json")
    payload = json.load(open(home_shard))
    payload["entries"].update(json.load(open(stray_shard))["entries"])
    json.dump(payload, open(home_shard, "w"))
    os.remove(stray_shard)

    with pytest.warns(RuntimeWarning, match="malformed") as caught:
        cache = ResultCache(path)
    [message] = [str(record.message) for record in caught]
    assert stray.cache_key() in message and home_shard in message
    assert cache.load(stray) is None
    cache.store(home, cache.load(home))
    cache.save()

    assert shard_files(path) == [home_shard]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reopened = ResultCache(path)
    assert reopened.load(home) is not None
    assert reopened.load(stray) is None


def test_stale_eviction_deletes_emptied_shard(tmp_path):
    path = str(tmp_path / "cache")
    [point] = distinct_prefix_points(1)
    run_scenarios([point], session=Session(cache=ResultCache(path)))
    [shard] = shard_files(path)
    payload = json.load(open(shard))
    for entry in payload["entries"].values():
        entry["fingerprint"] = "0" * 16
    json.dump(payload, open(shard, "w"))

    cache = ResultCache(path)
    assert cache.load(point) is None
    assert cache.stale_evicted == 1
    cache.save()
    assert shard_files(path) == []  # emptied shard removed from disk


def test_sharded_cache_resumes_interrupted_sweep(tmp_path):
    """Acceptance: a killed sweep resumes from the sharded cache,
    recomputing only the missing points."""
    path = str(tmp_path / "cache")
    points = [ScenarioPoint(config=tiny_config(seed=seed))
              for seed in (1, 2, 3, 4)]

    completed = {"count": 0}

    def interrupt_after_two(point):
        if completed["count"] >= 2:
            raise KeyboardInterrupt
        completed["count"] += 1

    cache = ResultCache(path, autosave_min_s=0.0)
    with pytest.raises(KeyboardInterrupt):
        run_scenarios(points, session=Session(cache=cache),
                      progress=interrupt_after_two)

    on_disk = ResultCache(path)
    cached_before = {p.cache_key() for p in points if p in on_disk}
    assert 0 < len(cached_before) < len(points)

    outcomes = run_scenarios(points, session=Session(cache=ResultCache(path)))
    assert [outcome.cached for outcome in outcomes] == [
        point.cache_key() in cached_before for point in points]
    resumed = ResultCache(path)
    assert all(point in resumed for point in points)
    # Every entry carries the current fingerprint.
    for shard in shard_files(path):
        for entry in json.load(open(shard))["entries"].values():
            assert entry["fingerprint"] == code_fingerprint()
