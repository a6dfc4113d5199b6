"""Cache lifecycle subsystem: stats, GC, compaction, CLI."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.architectures import TestbedConfig
from repro.cli import main
from repro.harness import (
    ExperimentConfig,
    ResultCache,
    ScenarioPoint,
    Session,
    code_fingerprint,
    collect_stats,
    compact_cache,
    gc_cache,
)
from repro.harness.runner import execute_point


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


def point_for_seed(seed: int) -> ScenarioPoint:
    return ScenarioPoint(config=tiny_config(seed=seed))


@pytest.fixture(scope="module")
def tiny_result():
    return execute_point(point_for_seed(1))


def populate(path: str, seeds, result) -> list[ScenarioPoint]:
    cache = ResultCache(path)
    points = [point_for_seed(seed) for seed in seeds]
    for point in points:
        cache.store(point, result)
    cache.save()
    return points


def shard_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "??.json")))


def shard_bytes(path: str) -> dict[str, bytes]:
    return {os.path.basename(shard): open(shard, "rb").read()
            for shard in shard_files(path)}


def age_entries(path: str, *, keep: int = 0) -> int:
    """Rewrite all but ``keep`` entries as if older code produced them;
    returns how many were aged."""
    aged = 0
    spared = 0
    for shard in shard_files(path):
        payload = json.load(open(shard))
        for entry in payload["entries"].values():
            if spared < keep:
                spared += 1
                continue
            entry["fingerprint"] = "f" * 16
            aged += 1
        json.dump(payload, open(shard, "w"))
    return aged


def entry_payloads(path: str) -> dict[str, str]:
    """Every entry's own serialized bytes, keyed by cache key."""
    payloads: dict[str, str] = {}
    for shard in shard_files(path):
        for key, entry in json.load(open(shard))["entries"].items():
            payloads[key] = json.dumps(entry)
    return payloads


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def test_stats_census_per_fingerprint(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1, 2, 3), tiny_result)
    aged = age_entries(path, keep=1)
    assert aged == 2

    stats = collect_stats(path)
    assert stats.entries == 3
    assert stats.stale_entries == 2
    assert stats.stale_fraction == pytest.approx(2 / 3)
    assert stats.shards == len(shard_files(path))
    assert stats.total_bytes == sum(
        os.path.getsize(shard) for shard in shard_files(path))
    by_fp = stats.fingerprints
    assert by_fp[code_fingerprint()].entries == 1
    assert not by_fp[code_fingerprint()].stale
    assert by_fp["f" * 16].entries == 2
    assert by_fp["f" * 16].stale
    # Current fingerprint sorts first in the report rows.
    assert stats.rows()[0]["status"] == "current"


def test_stats_are_read_only_even_on_corruption(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1, 2), tiny_result)
    victim = shard_files(path)[0]
    with open(victim, "w") as handle:
        handle.write("{truncated")
    quarantine = os.path.join(path, "zz.json.corrupt")
    with open(quarantine, "w") as handle:
        handle.write("old quarantined garbage")

    before = shard_bytes(path)
    stats = collect_stats(path)
    assert stats.corrupt_shards == 1
    assert stats.entries == 1  # the readable shard still counts
    assert stats.quarantined == 1
    assert stats.quarantined_bytes == os.path.getsize(quarantine)
    # Nothing moved, quarantined or evicted (unlike opening a ResultCache).
    assert shard_bytes(path) == before
    assert os.path.exists(victim) and os.path.exists(quarantine)


def test_stats_missing_directory_is_empty(tmp_path):
    stats = collect_stats(str(tmp_path / "nowhere"))
    assert stats.entries == 0 and stats.stale_fraction == 0.0


def test_admin_refuses_legacy_single_file(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": 1, "entries": {}}))
    for operation in (collect_stats, gc_cache, compact_cache):
        with pytest.raises(ValueError, match="single-file"):
            operation(str(path))


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------

def test_gc_removes_every_stale_entry(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    points = populate(path, range(1, 7), tiny_result)
    aged = age_entries(path, keep=2)

    report = gc_cache(path)
    assert report.evicted == aged
    assert report.scanned_entries == len(points)
    assert report.bytes_reclaimed > 0
    assert report.deleted_shards + report.rewritten_shards > 0

    stats = collect_stats(path)
    assert stats.stale_entries == 0  # 100% of stale entries removed
    assert stats.entries == 2
    # Survivors still load through the normal cache path.
    cache = ResultCache(path)
    assert sum(point in cache for point in points) == 2


def test_gc_dry_run_writes_nothing(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1, 2, 3), tiny_result)
    age_entries(path, keep=1)
    before = shard_bytes(path)

    report = gc_cache(path, dry_run=True)
    assert report.dry_run
    assert report.evicted == 2
    assert report.bytes_reclaimed > 0
    assert shard_bytes(path) == before  # untouched


def test_gc_purge_quarantine(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1,), tiny_result)
    quarantine = os.path.join(path, "ab.json.corrupt-1")
    with open(quarantine, "w") as handle:
        handle.write("garbage")

    kept = gc_cache(path)
    assert kept.purged_quarantine == 0
    assert os.path.exists(quarantine)

    purged = gc_cache(path, purge_quarantine=True)
    assert purged.purged_quarantine == 1
    assert not os.path.exists(quarantine)


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

def _scramble_shard_order(path: str) -> None:
    """Simulate multi-writer arrival order: rewrite each shard with its
    entries reversed."""
    for shard in shard_files(path):
        payload = json.load(open(shard))
        reversed_entries = dict(reversed(list(payload["entries"].items())))
        json.dump({"version": payload["version"],
                   "entries": reversed_entries}, open(shard, "w"))


def test_compact_is_byte_identical_per_entry(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    points = populate(path, range(1, 9), tiny_result)
    _scramble_shard_order(path)
    before = entry_payloads(path)

    report = compact_cache(path)
    assert report.entries == len(points)
    after = entry_payloads(path)
    assert after == before  # every surviving entry byte-identical
    for shard in shard_files(path):
        keys = list(json.load(open(shard))["entries"])
        assert keys == sorted(keys)
    # And the compacted cache still serves every point.
    cache = ResultCache(path)
    assert all(point in cache for point in points)


def test_compact_clears_tmp_leftovers(tmp_path, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1,), tiny_result)
    leftover = os.path.join(path, "ab.json.tmp")
    with open(leftover, "w") as handle:
        handle.write("crashed mid-flush")
    report = compact_cache(path)
    assert report.removed_tmp == 1
    assert not os.path.exists(leftover)


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------

def test_session_cache_stats(tmp_path):
    path = str(tmp_path / "cache")
    with Session(cache=path) as session:
        session.run([point_for_seed(1)])
        stats = session.cache_stats()  # flushes, then censuses
        assert stats.entries == 1
        assert stats.stale_entries == 0
    assert Session().cache_stats() is None


# ---------------------------------------------------------------------------
# CLI front end
# ---------------------------------------------------------------------------

def test_cli_cache_stats_and_gc(tmp_path, capsys, tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1, 2), tiny_result)
    age_entries(path, keep=1)

    assert main(["cache", "stats", path]) == 0
    out = capsys.readouterr().out
    assert code_fingerprint() in out
    assert "stale" in out

    assert main(["cache", "gc", path]) == 0
    assert "evicted 1" in capsys.readouterr().out
    assert collect_stats(path).stale_entries == 0


def test_cli_cache_path_falls_back_to_env(tmp_path, capsys, monkeypatch,
                                          tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1,), tiny_result)
    monkeypatch.setenv("REPRO_CACHE", path)
    assert main(["cache", "stats"]) == 0
    assert "1 entries" in capsys.readouterr().out

    monkeypatch.delenv("REPRO_CACHE")
    assert main(["cache", "stats"]) == 2
    assert "no cache path" in capsys.readouterr().err


def test_cli_cache_errors_are_clean_diagnostics(tmp_path, capsys,
                                                tiny_result):
    path = str(tmp_path / "cache")
    populate(path, (1,), tiny_result)
    with open(os.path.join(path, "zz.json"), "w") as handle:
        json.dump({"version": 99, "entries": {}}, handle)
    for command in ("stats", "gc", "compact"):
        assert main(["cache", command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 99" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Malformed shards: every command survives what ResultCache survives
# ---------------------------------------------------------------------------

MALFORMED_SHARDS = {
    "entries-not-object": {"version": 1, "entries": "oops"},
    "entry-not-object": {"version": 1, "entries": {"ab12": "oops"}},
    "fingerprint-not-string": {"version": 1,
                               "entries": {"ab12": {"fingerprint": ["x"]}}},
}


@pytest.mark.parametrize("command", ["stats", "gc", "compact"])
@pytest.mark.parametrize("shape", sorted(MALFORMED_SHARDS))
def test_cli_cache_survives_malformed_shards(tmp_path, capsys, shape,
                                             command):
    path = str(tmp_path / "cache")
    os.makedirs(path)
    shard = os.path.join(path, "ab.json")
    with open(shard, "w") as handle:
        json.dump(MALFORMED_SHARDS[shape], handle)
    before = shard_bytes(path)
    unreadable = shape == "entries-not-object"

    assert main(["cache", command, path]) == 0
    capsys.readouterr()
    assert not glob.glob(shard + ".corrupt*")  # nothing is quarantined
    if command == "gc" and not unreadable:
        assert not os.path.exists(shard)  # its one stale entry was evicted
    else:
        # stats is read-only, an unreadable shard is skipped, and compact
        # keeps a stale entry's bytes.
        assert shard_bytes(path) == before
    if command == "stats":
        stats = collect_stats(path)
        assert (stats.corrupt_shards, stats.entries, stats.stale_entries) == (
            (1, 0, 0) if unreadable else (0, 1, 1))
        if not unreadable:
            assert stats.fingerprints["<none>"].stale
