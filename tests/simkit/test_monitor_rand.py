"""Unit tests for monitors and deterministic random streams."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.simkit import (BatchedUniform, Counter, Monitor, RandomStreams,
                          derive_seed)


# ---------------------------------------------------------------------------
# Counter / Monitor
# ---------------------------------------------------------------------------

def test_counter_increments_and_rejects_negative():
    counter = Counter("msgs")
    counter.increment()
    counter.increment(3)
    assert counter.value == 4
    with pytest.raises(ValueError):
        counter.increment(-1)


def test_monitor_creates_and_reuses_instruments():
    mon = Monitor("consumer-0")
    mon.count("received")
    mon.count("received", 2)
    assert mon.counter("received").value == 3
    assert mon.counters["received"] is mon.counter("received")


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_are_reproducible_across_factories():
    a = RandomStreams(42).stream("producer", 0).random(5)
    b = RandomStreams(42).stream("producer", 0).random(5)
    assert np.allclose(a, b)


def test_streams_are_independent_per_component():
    streams = RandomStreams(42)
    a = streams.stream("producer", 0).random(5)
    b = streams.stream("producer", 1).random(5)
    assert not np.allclose(a, b)


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_helper_draws_within_bounds():
    streams = RandomStreams(0)
    value = streams.uniform(1.0, 2.0, "jitter")
    assert 1.0 <= value <= 2.0
    assert streams.exponential(1.0, "gap") >= 0.0


# ---------------------------------------------------------------------------
# BatchedUniform
# ---------------------------------------------------------------------------

def _scalar_uniforms(seed, bounds):
    rng = np.random.default_rng(seed)
    return [rng.uniform(low, high) for low, high in bounds]


@pytest.mark.parametrize("batch", [1, 512, 509], ids=["one", "default", "prime"])
def test_batched_uniform_bit_identical_to_scalar_draws(batch):
    """Batched draws reproduce Generator.uniform bit-for-bit in the same
    global order, across multiple refill seams and varying bounds."""
    bounds = [(0.001 * i, 0.001 * i + 0.5 + 0.01 * (i % 7))
              for i in range(1300)]
    batched = BatchedUniform(np.random.default_rng(42), batch=batch)
    drawn = [batched.uniform(low, high) for low, high in bounds]
    assert drawn == _scalar_uniforms(42, bounds)


def test_batched_uniform_refill_seam_is_seamless():
    """Exhausting the buffer exactly at its boundary and drawing once more
    continues the underlying stream without skipping or repeating."""
    batch = 8
    batched = BatchedUniform(np.random.default_rng(7), batch=batch)
    for expected in np.random.default_rng(7).random(size=batch):
        assert batched.uniform(0.0, 1.0) == expected
    assert batched._idx == batch  # buffer exhausted, refill pending
    follow_up = np.random.default_rng(7)
    follow_up.random(size=batch)
    assert batched.uniform(0.0, 1.0) == follow_up.random(size=batch)[0]
    assert batched._idx == 1


def test_batched_uniform_rejects_bad_batch():
    with pytest.raises(ValueError):
        BatchedUniform(np.random.default_rng(0), batch=0)


def test_batched_uniform_pickles_mid_buffer():
    """Pickling preserves both the generator state and the buffer cursor,
    so a restored stream continues exactly where the original would."""
    twin = BatchedUniform(np.random.default_rng(11), batch=16)
    original = BatchedUniform(np.random.default_rng(11), batch=16)
    for _ in range(5):  # park the cursor mid-buffer
        twin.uniform(0.0, 1.0)
        original.uniform(0.0, 1.0)
    restored = pickle.loads(pickle.dumps(original))
    for _ in range(40):  # crosses the next refill seam too
        assert restored.uniform(0.0, 1.0) == twin.uniform(0.0, 1.0)
