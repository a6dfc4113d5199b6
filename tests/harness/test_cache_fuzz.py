"""Arbitrary JSON anywhere in a shard never crashes the cache.

Hypothesis damages one shard of a two-shard cache: it writes arbitrary
JSON at one level (the top level, ``entries``, one entry, its
``fingerprint``, ``result``, ``runs``, one run, one run field or one packed
sample column), truncates the file, or gives it another ``version`` or
none.  Every ``ResultCache`` operation and every ``cache`` subcommand must
then succeed, with one exception: a version other than the integer 1
(``true`` and ``1.0`` included) raises ``ValueError`` naming it in the
library and exits 2 with that diagnostic in the CLI.  The undamaged
shard's entry still loads.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.architectures import TestbedConfig
from repro.cli import main
from repro.harness import ExperimentConfig, ResultCache, ScenarioPoint
from repro.harness.cache import SAMPLE_COLUMNS
from repro.harness.runner import execute_point


def point_for_seed(seed: int) -> ScenarioPoint:
    return ScenarioPoint(config=ExperimentConfig(
        architecture="DTS", workload="Dstream", pattern="work_sharing",
        num_producers=1, num_consumers=1, messages_per_producer=3,
        max_sim_time_s=120.0, seed=seed,
        testbed=TestbedConfig(producer_nodes=2, consumer_nodes=2)))


DAMAGED = point_for_seed(1)
INTACT = next(point for point in map(point_for_seed, range(2, 100))
              if point.cache_key()[:2] != DAMAGED.cache_key()[:2])


def shard_name(point: ScenarioPoint) -> str:
    return f"{point.cache_key()[:2]}.json"


def payload_text(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """The result both points store, and the two shards' parsed JSON."""
    result = execute_point(DAMAGED)
    path = str(tmp_path_factory.mktemp("filled"))
    cache = ResultCache(path)
    cache.store(DAMAGED, result)
    cache.store(INTACT, result)
    cache.save()
    shards = {}
    for point in (DAMAGED, INTACT):
        with open(os.path.join(path, shard_name(point))) as handle:
            shards[point.cache_key()] = json.load(handle)
    return result, shards


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-2**1100, 2**1100)  # past the float range too
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | st.text("0123456789abcdef", max_size=40),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=10)

#: Where to write the arbitrary value, as a path from the shard's top
#: level; ``KEY`` stands for the damaged entry's key.
KEY = object()
LEVELS = {
    "entries": ("entries",),
    "entry": ("entries", KEY),
    "fingerprint": ("entries", KEY, "fingerprint"),
    "result": ("entries", KEY, "result"),
    "runs": ("entries", KEY, "result", "runs"),
    "run": ("entries", KEY, "result", "runs", 0),
    "version": ("version",),
}
RUN_FIELDS = ("architecture", "num_consumers", "feasible", "published",
              "duration_s", "throughput", "consumer_balance", "extra")


@st.composite
def damages(draw):
    """``(kind, path, value)``: write ``value`` at ``path``, drop the
    version, replace the whole shard, or truncate its text at ``value``."""
    kind = draw(st.sampled_from(
        ["top", "truncate", "no-version", "column", "run-field",
         *LEVELS]))
    if kind == "truncate":
        return kind, (), draw(st.floats(0, 1, exclude_max=True))
    if kind == "no-version":
        return kind, (), None
    if kind == "column":
        path = LEVELS["run"] + (draw(st.sampled_from(SAMPLE_COLUMNS)),)
    elif kind == "run-field":
        path = LEVELS["run"] + (draw(st.sampled_from(RUN_FIELDS)),)
    else:
        path = LEVELS.get(kind, ())
    return kind, path, draw(json_values)


def damaged_text(shard: dict, key: str, damage) -> tuple[str, object]:
    """The damaged shard's text, and the version it declares: ``None``
    when it declares none, and ``1`` when it is truncated or not an
    object, which makes it corrupt, not of another version."""
    kind, path, value = damage
    if kind == "truncate":
        text = json.dumps(shard)
        return text[:int(value * len(text))], 1
    shard = copy.deepcopy(shard)
    if kind == "no-version":
        del shard["version"]
    elif not path:
        shard = value
    else:
        *parents, last = [key if step is KEY else step for step in path]
        target = shard
        for step in parents:
            target = target[step]
        target[last] = value
    version = shard.get("version") if isinstance(shard, dict) else 1
    return json.dumps(shard), version


def run_cli(command: str, path: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        status = main(["cache", command, path])
    return status, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(damage=damages())
def test_no_damage_to_a_shard_crashes_the_cache(filled, damage):
    result, shards = filled
    key = DAMAGED.cache_key()
    text, version = damaged_text(shards[key], key, damage)
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        path = os.path.join(root, "cache")
        os.makedirs(path)
        with open(os.path.join(path, shard_name(DAMAGED)), "w") as handle:
            handle.write(text)
        with open(os.path.join(path, shard_name(INTACT)), "w") as handle:
            json.dump(shards[INTACT.cache_key()], handle)

        current = type(version) is int and version == 1
        for command in ("stats", "gc", "compact"):
            copied = os.path.join(root, command)
            shutil.copytree(path, copied)
            status, err = run_cli(command, copied)
            if current:
                assert status == 0, err
            else:
                assert status == 2
                assert err.startswith("error: ")
                assert f"has version {version!r}" in err

        if not current:
            with pytest.raises(ValueError) as raised:
                ResultCache(path)
            assert f"has version {version!r}" in str(raised.value)
            return
        cache = ResultCache(path)
        assert payload_text(cache.load(INTACT)) == payload_text(result)
        found = DAMAGED in cache
        loaded = cache.load(DAMAGED)
        assert found or loaded is None  # what `in` misses, load misses
        cache.store(DAMAGED, result)
        cache.save()
        reopened = ResultCache(path)
        for point in (DAMAGED, INTACT):
            assert payload_text(reopened.load(point)) == payload_text(result)
