"""The disk cache's packed sample columns and its malformed-entry misses.

A disk entry stores each run's four sample columns (``SAMPLE_COLUMNS``) as
one hex string of little-endian float64 bytes instead of a JSON float list.
The packing must be invisible: a loaded result carries bit-identical
columns and serializes to the same ``to_json_dict()`` as the stored one.
An entry that is not an object or does not rebuild is a miss, and a shard
whose ``entries`` is not an object is quarantined, never a crashed sweep.
"""

from __future__ import annotations

import copy
import glob
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultCache,
    RunResult,
    ScenarioPoint,
    Session,
    code_fingerprint,
    run_scenarios,
)
from repro.harness.cache import SAMPLE_COLUMNS, write_shard
from repro.metrics import compute_rtt


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


def same_shard_points(count: int) -> list[ScenarioPoint]:
    """Points whose cache keys share one two-hex shard prefix."""
    by_shard: dict[str, list[ScenarioPoint]] = {}
    seed = 1
    while True:
        point = ScenarioPoint(config=tiny_config(seed=seed))
        bucket = by_shard.setdefault(point.cache_key()[:2], [])
        bucket.append(point)
        if len(bucket) == count:
            return bucket
        seed += 1


def shard_path(cache_dir: str, point: ScenarioPoint) -> str:
    return os.path.join(cache_dir, f"{point.cache_key()[:2]}.json")


def payload_text(result: ExperimentResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def stored_columns(cache_dir: str):
    """Every (column name, stored value) of every run in every shard."""
    for shard in sorted(glob.glob(os.path.join(cache_dir, "??.json"))):
        with open(shard) as handle:
            entries = json.load(handle)["entries"]
        for entry in entries.values():
            for run in entry["result"]["runs"]:
                for name in SAMPLE_COLUMNS:
                    if name in run:
                        yield name, run[name]


def synthetic_result(runs: list[tuple]) -> ExperimentResult:
    """An experiment result whose runs carry the given ``(rtt, latency)``
    columns, each ``None`` or ``(samples, weights-or-None)``."""
    def distribution(column):
        if column is None:
            return None
        samples, weights = column
        return compute_rtt(np.array(samples, dtype=float),
                           weights=(None if weights is None
                                    else np.array(weights, dtype=float)))
    return ExperimentResult(
        architecture="DTS", workload="Dstream",
        pattern="work_sharing_feedback", num_producers=1, num_consumers=1,
        runs=[RunResult(architecture="DTS", workload="Dstream",
                        pattern="work_sharing_feedback", num_producers=1,
                        num_consumers=1,
                        rtt=distribution(rtt), latency=distribution(latency))
              for rtt, latency in runs])


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                  5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308)

float64s = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))


@st.composite
def distributions(draw):
    """``None`` or ``(samples, weights)``; a weighted (population) column
    has one weight per sample, and a column may be empty."""
    if draw(st.booleans()):
        return None
    samples = draw(st.lists(float64s, max_size=12))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(float64s, min_size=len(samples),
                                max_size=len(samples)))
    return samples, weights


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.tuples(distributions(), distributions()),
                     min_size=1, max_size=3))
def test_packed_columns_round_trip_bit_for_bit(runs):
    point = ScenarioPoint(config=tiny_config())
    original = synthetic_result(runs)
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        cache.store(point, original)
        cache.save()
        loaded = ResultCache(cache_dir).load(point)
    assert payload_text(loaded) == payload_text(original)
    for before, after in zip(original.runs, loaded.runs, strict=True):
        for name in ("rtt", "latency"):
            column, restored = getattr(before, name), getattr(after, name)
            if column is None:
                assert restored is None
                continue
            assert restored.samples.dtype == np.float64
            assert restored.samples.tobytes() == column.samples.tobytes()
            if column.weights is None:
                assert restored.weights is None
            else:
                assert restored.weights.tobytes() == column.weights.tobytes()


def test_a_saved_shard_holds_no_float_list(tmp_path):
    cache_dir = str(tmp_path / "cache")
    points = [
        ScenarioPoint(config=tiny_config()),
        ScenarioPoint(config=tiny_config(pattern="work_sharing_feedback",
                                         population=7)),
    ]
    run_scenarios(points, session=Session(cache=ResultCache(cache_dir)))
    columns = list(stored_columns(cache_dir))
    # The population point carries all four columns, weights included.
    assert {name for name, _ in columns} == set(SAMPLE_COLUMNS)
    for name, value in columns:
        assert value is None or isinstance(value, str), name
        if value is not None:
            assert len(value) % 16 == 0
            assert value == value.lower()


def test_load_leaves_the_stored_entry_as_it_is(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first, second = same_shard_points(2)
    run_scenarios([first], session=Session(cache=ResultCache(cache_dir)))

    cache = ResultCache(cache_dir)
    key = first.cache_key()
    before = copy.deepcopy(cache._entries[key])
    served = cache.load(first)
    assert served is not None
    assert cache._entries[key] == before
    assert isinstance(before["result"]["runs"][0]["latency_samples"], str)

    # A later store and save rewrite the same shard with both entries.
    [fresh] = run_scenarios([second], session=Session(cache=cache))
    assert not fresh.cached
    reopened = ResultCache(cache_dir)
    assert payload_text(reopened.load(first)) == payload_text(served)
    assert payload_text(reopened.load(second)) == payload_text(fresh.result)
    assert len(glob.glob(os.path.join(cache_dir, "??.json"))) == 1


def test_an_entry_with_list_columns_still_loads(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    point = ScenarioPoint(config=tiny_config())
    original = synthetic_result([(([0.5, -0.0, 1e-300], [1.0, 2.0, 3.0]),
                                  ([0.25], None))])
    write_shard(shard_path(str(cache_dir), point), {point.cache_key(): {
        "point": point.describe(),
        "fingerprint": code_fingerprint(),
        "result": original.to_json_dict(),
    }})
    loaded = ResultCache(str(cache_dir)).load(point)
    assert payload_text(loaded) == payload_text(original)


# ---------------------------------------------------------------------------
# A malformed entry is a miss
# ---------------------------------------------------------------------------

def _drop_runs(result: dict) -> None:
    del result["runs"]


def _odd_hex(result: dict) -> None:
    column = result["runs"][0]["latency_samples"]
    assert isinstance(column, str)
    result["runs"][0]["latency_samples"] = column[:-1]


def _partial_float(result: dict) -> None:
    column = result["runs"][0]["latency_samples"]
    assert isinstance(column, str)
    result["runs"][0]["latency_samples"] = column[:-2]


def _string_in_list(result: dict) -> None:
    result["runs"][0]["latency_samples"] = ["0.5", "not a float"]


def _int_past_float_range(result: dict) -> None:
    result["runs"][0]["latency_samples"] = [10 ** 400]


@pytest.mark.parametrize("damage", [_drop_runs, _odd_hex, _partial_float,
                                    _string_in_list, _int_past_float_range])
def test_a_malformed_entry_is_evicted_and_simulated_again(tmp_path, damage):
    cache_dir = str(tmp_path / "cache")
    point = ScenarioPoint(config=tiny_config())
    [original] = run_scenarios([point],
                               session=Session(cache=ResultCache(cache_dir)))
    shard = shard_path(cache_dir, point)
    with open(shard) as handle:
        payload = json.load(handle)
    damage(payload["entries"][point.cache_key()]["result"])
    with open(shard, "w") as handle:
        json.dump(payload, handle)

    cache = ResultCache(cache_dir)
    with pytest.warns(RuntimeWarning, match=point.cache_key()):
        assert cache.load(point) is None
    assert point not in cache
    assert cache.stale_evicted == 0
    # The eviction sticks: the shard held only this entry, so the save
    # removes it rather than merging the entry back from disk.
    cache.save()
    assert not os.path.exists(shard)

    [again] = run_scenarios([point], session=Session(cache=cache))
    assert not again.cached
    assert payload_text(again.result) == payload_text(original.result)
    assert payload_text(ResultCache(cache_dir).load(point)) == payload_text(
        original.result)


@pytest.mark.parametrize("lookup", [
    lambda cache, point: cache.load(point),
    lambda cache, point: point in cache,
], ids=["load", "in"])
def test_an_entry_that_is_not_an_object_is_evicted(tmp_path, lookup):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    damaged, other = same_shard_points(2)
    write_shard(shard_path(cache_dir, damaged), {damaged.cache_key(): "oops"})

    cache = ResultCache(cache_dir)
    with pytest.warns(RuntimeWarning, match=damaged.cache_key()):
        assert not lookup(cache, damaged)
    assert cache.load(damaged) is None
    assert damaged not in cache

    # A later store and save into the same shard keep the eviction.
    [fresh] = run_scenarios([other], session=Session(cache=cache))
    assert not fresh.cached
    with open(shard_path(cache_dir, other)) as handle:
        assert list(json.load(handle)["entries"]) == [other.cache_key()]
    assert payload_text(ResultCache(cache_dir).load(other)) == payload_text(
        fresh.result)


def test_a_shard_whose_entries_is_not_an_object_is_quarantined(tmp_path):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    first, second = same_shard_points(2)
    shard = shard_path(cache_dir, first)
    content = json.dumps({"version": 1, "entries": "oops"})
    with open(shard, "w") as handle:
        handle.write(content)

    with pytest.warns(RuntimeWarning, match="corrupt"):
        cache = ResultCache(cache_dir)
    [quarantined] = glob.glob(shard + ".corrupt*")
    with open(quarantined) as handle:
        assert handle.read() == content
    assert cache.load(first) is None
    assert first not in cache
    [stored] = run_scenarios([first], session=Session(cache=cache))
    assert not stored.cached

    # The same shape written by another process is quarantined by the
    # next save's merge, which then writes the shard afresh.
    with open(shard, "w") as handle:
        handle.write(content)
    cache.store(second, stored.result)
    with pytest.warns(RuntimeWarning, match="corrupt"):
        cache.save()
    assert len(glob.glob(shard + ".corrupt*")) == 2
    reopened = ResultCache(cache_dir)
    assert payload_text(reopened.load(first)) == payload_text(stored.result)
    assert payload_text(reopened.load(second)) == payload_text(stored.result)
