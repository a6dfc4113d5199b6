"""Filesystem-enumeration order must not leak into any output (rule D005
made lexical; these tests make it behavioral): every listdir/scandir/glob/
iterdir consumer is exercised against a *reversed* directory enumeration
and must produce byte-identical results."""

from __future__ import annotations

import glob
import json
import os
import pathlib

import pytest

from repro.architectures import TestbedConfig
from repro.harness import ExperimentConfig, ResultCache, ScenarioPoint
from repro.harness.cache import shard_paths
from repro.harness.cache_admin import collect_stats, compact_cache
from repro.harness.runner import execute_point


@pytest.fixture()
def reversed_listings(monkeypatch):
    """Make every directory enumeration come back in reversed order —
    a worst-case filesystem. Sorted consumers are unaffected."""
    real_listdir = os.listdir
    real_scandir = os.scandir
    real_glob = glob.glob
    real_iterdir = pathlib.Path.iterdir

    monkeypatch.setattr(
        os, "listdir",
        lambda *a, **k: list(reversed(real_listdir(*a, **k))))
    monkeypatch.setattr(
        os, "scandir",
        lambda *a, **k: iter(reversed(list(real_scandir(*a, **k)))))
    monkeypatch.setattr(
        glob, "glob",
        lambda *a, **k: list(reversed(real_glob(*a, **k))))
    monkeypatch.setattr(
        pathlib.Path, "iterdir",
        lambda self: iter(reversed(list(real_iterdir(self)))))


def tiny_point(seed: int) -> ScenarioPoint:
    return ScenarioPoint(config=ExperimentConfig(
        architecture="DTS", workload="Dstream", pattern="work_sharing",
        num_producers=1, num_consumers=1, messages_per_producer=3,
        max_sim_time_s=120.0, seed=seed,
        testbed=TestbedConfig(producer_nodes=2, consumer_nodes=2)))


# ---------------------------------------------------------------------------
# cache census / compaction
# ---------------------------------------------------------------------------

def populate(path: str, seeds) -> None:
    cache = ResultCache(path)
    result = execute_point(tiny_point(seeds[0]))
    for seed in seeds:
        cache.store(ScenarioPoint(config=tiny_point(seed).config), result)
    cache.save()


def stats_snapshot(path: str):
    stats = collect_stats(path)
    return (stats.summary(), json.dumps(stats.rows(), sort_keys=True))


def shard_bytes(path: str) -> dict[str, bytes]:
    return {os.path.basename(shard): pathlib.Path(shard).read_bytes()
            for shard in shard_paths(path)}


def test_cache_stats_ignore_fs_order(tmp_path, request):
    natural = str(tmp_path / "natural")
    reversed_ = str(tmp_path / "reversed")
    for path in (natural, reversed_):
        populate(path, [1, 2, 3])
        pathlib.Path(path, "zz.json.corrupt-0").write_text("junk")
    # Open the filled cache, store and save: once in filesystem order ...
    populate(natural, [4, 5, 6, 7])
    expected = stats_snapshot(natural)
    # ... and once, with the census, against reversed enumeration.
    request.getfixturevalue("reversed_listings")
    populate(reversed_, [4, 5, 6, 7])
    assert stats_snapshot(reversed_) == expected
    assert shard_bytes(reversed_) == shard_bytes(natural)
    assert shard_paths(reversed_) == sorted(shard_paths(reversed_))


def test_cache_compaction_ignores_fs_order(tmp_path, reversed_listings):
    path = str(tmp_path / "cache")
    populate(path, [1, 2, 3])
    report = compact_cache(path)
    assert report.entries == 3
    # The census after compaction is the sorted one.
    stats = collect_stats(path)
    assert stats.entries == 3
