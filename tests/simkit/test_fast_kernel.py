"""Unit tests for the simkit hot-path machinery.

Covers the invariants the fast-kernel overhaul must preserve:

* the zero-delay FIFO lanes merge with the time heap in exact
  ``(time, priority, eid)`` order (bit-identical to an all-heap schedule),
* processed value-less timeouts are recycled through the freelist, and
  everything that may legitimately re-inspect a timeout (``AnyOf``,
  ``run(until=...)``, value-carrying timeouts) is pinned out of it,
* the single-callback slot upgrades to a list transparently.
"""

from __future__ import annotations

import pytest

from repro.simkit import AnyOf, Environment, SchedulingError
from repro.simkit.core import _TIMEOUT_FREELIST_MAX


# ---------------------------------------------------------------------------
# Zero-delay lane ordering vs heap ordering
# ---------------------------------------------------------------------------

def test_lane_event_runs_after_older_heap_event_at_same_time():
    """A zero-delay event scheduled *at* t must not overtake a heap entry
    that was scheduled earlier (smaller eid) and lands at the same t."""
    env = Environment()
    order = []

    def first(env):
        yield env.timeout(1.0)  # scheduled first -> smaller eid
        order.append("first")
        # Now at t=1.0: a zero-delay event goes onto the lane with a large
        # eid, while `second`'s resume still sits in the heap with a
        # smaller one.
        done = env.event()
        done.add_callback(lambda event: order.append("lane"))
        done.succeed()

    def second(env):
        yield env.timeout(1.0)  # scheduled second, same trigger time
        order.append("second")

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert order == ["first", "second", "lane"]


def test_urgent_lane_beats_older_normal_lane_entries():
    """Urgent zero-delay events (process starts) run before normal
    zero-delay events queued earlier at the same instant."""
    env = Environment()
    order = []

    def starter(env):
        yield env.timeout(1.0)
        # Normal-priority zero-delay event first (smaller eid)...
        normal = env.event()
        normal.add_callback(lambda event: order.append("normal"))
        normal.succeed()
        # ...then a process start, which schedules an *urgent* event.
        env.process(child(env))

    def child(env):
        order.append("urgent-start")
        yield env.timeout(0)

    env.process(starter(env))
    env.run()
    assert order[:2] == ["urgent-start", "normal"]


def test_zero_delay_events_preserve_fifo_order():
    env = Environment()
    order = []

    def make(tag):
        def proc(env):
            yield env.timeout(0)
            order.append(tag)
        return proc

    for tag in range(8):
        env.process(make(tag)(env))
    env.run()
    assert order == list(range(8))


def test_run_drains_lanes_and_heap_in_key_order():
    env = Environment()
    order = []
    # The heap entry is older (smaller eid) but due later, so the
    # zero-delay lane entry drains first.
    env.timeout(0.5).add_callback(lambda event: order.append(("heap", env.now)))
    env.timeout(0).add_callback(lambda event: order.append(("lane", env.now)))
    env.run()
    assert order == [("lane", 0.0), ("heap", 0.5)]


# ---------------------------------------------------------------------------
# Timeout freelist
# ---------------------------------------------------------------------------

def test_processed_timeout_is_recycled():
    env = Environment()
    t1 = env.timeout(0.5)
    env.run()
    # Reuse-after-processed invariant: the old reference still reads as a
    # processed, successful, value-less timeout while it sits in the pool.
    assert t1.processed and t1.ok and t1.value is None
    t2 = env.timeout(0.25)
    assert t2 is t1
    assert t2.triggered and not t2.processed
    assert t2.delay == 0.25
    env.run()
    assert t2.processed


def test_recycled_timeout_resumes_a_fresh_waiter():
    env = Environment()
    times = []

    def sleeper(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    env.process(sleeper(env, 1.0))
    env.run()
    env.process(sleeper(env, 2.0))
    env.run()
    assert times == [1.0, 3.0]


def test_condition_watched_timeout_is_pinned():
    env = Environment()
    t1 = env.timeout(1.0)
    AnyOf(env, [t1])
    env.run()
    assert env.timeout(1.0) is not t1
    # The condition may read the child's value long after processing.
    assert t1.value is None and t1.ok


def test_anyof_loser_timeout_is_pinned():
    env = Environment()
    winner = env.timeout(1.0)
    loser = env.timeout(5.0)
    AnyOf(env, [winner, loser])
    env.run()
    assert env.timeout(1.0) is not winner
    assert env.timeout(5.0) is not loser


def test_value_carrying_timeout_is_not_recycled():
    env = Environment()
    t1 = env.timeout(1.0, value="payload")
    env.run()
    t2 = env.timeout(1.0)
    assert t2 is not t1
    assert t1.value == "payload"


def test_run_until_timeout_is_pinned():
    env = Environment()
    deadline = env.timeout(1.0)
    env.run(until=deadline)
    assert env.timeout(1.0) is not deadline


def test_freelist_is_bounded():
    env = Environment()
    for _ in range(3 * _TIMEOUT_FREELIST_MAX):
        env.timeout(0.001)
    env.run()
    assert len(env._timeout_free) <= _TIMEOUT_FREELIST_MAX


def test_negative_delay_still_rejected_with_warm_freelist():
    env = Environment()
    env.timeout(0.1)
    env.run()  # freelist now warm
    with pytest.raises(SchedulingError):
        env.timeout(-0.5)


# ---------------------------------------------------------------------------
# Single-callback slot
# ---------------------------------------------------------------------------

def test_add_callback_upgrades_scalar_slot():
    env = Environment()
    event = env.event()
    seen = []
    # The first callback takes the scalar slot, the second upgrades it to
    # a list; registration order holds.
    event.add_callback(lambda e: seen.append("a"))
    event.add_callback(lambda e: seen.append("b"))
    event.add_callback(lambda e: seen.append("c"))
    event.succeed()
    env.run()
    assert seen == ["a", "b", "c"]


def test_add_callback_on_processed_event_raises():
    env = Environment()
    event = env.event().succeed()
    env.run()
    assert event.processed
    with pytest.raises(SchedulingError):
        event.add_callback(lambda e: None)


def test_multiple_waiters_on_one_event_all_resume():
    env = Environment()
    resumed = []

    def waiter(env, tag, gate):
        yield gate
        resumed.append(tag)

    gate = env.event()
    for tag in range(3):
        env.process(waiter(env, tag, gate))

    def opener(env, gate):
        yield env.timeout(1.0)
        gate.succeed()

    env.process(opener(env, gate))
    env.run()
    assert resumed == [0, 1, 2]
