"""Unit tests for the simkit event loop, processes and the AnyOf event."""

from __future__ import annotations

import pytest

from repro.simkit import AnyOf, Environment, SchedulingError


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_environment_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SchedulingError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SchedulingError):
        env.run(until=5.0)


def test_process_return_value_via_run_until_event():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return 42

    proc = env.process(worker(env))
    result = env.run(until=proc)
    assert result == 42
    assert env.now == 1.0


def test_process_waits_for_other_process():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(2.0)
        order.append("child")
        return "payload"

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        assert value == "payload"

    env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]


def test_event_succeed_and_value():
    env = Environment()
    event = env.event()
    results = []

    def waiter(env, event):
        value = yield event
        results.append(value)

    env.process(waiter(env, event))

    def trigger(env, event):
        yield env.timeout(1.0)
        event.succeed("hello")

    env.process(trigger(env, event))
    env.run()
    assert results == ["hello"]
    assert event.ok
    assert event.value == "hello"


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SchedulingError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    seen = []

    def waiter(env, event):
        try:
            yield event
        except ValueError as exc:
            seen.append(str(exc))

    event = env.event()
    env.process(waiter(env, event))
    event.fail(ValueError("boom"))
    env.run()
    assert seen == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def crasher(env):
        yield env.timeout(1.0)
        raise RuntimeError("crash")

    env.process(crasher(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_anyof_fires_on_first():
    env = Environment()
    done = []

    def waiter(env, events):
        yield AnyOf(env, events)
        done.append(env.now)

    events = [env.timeout(5.0), env.timeout(2.0)]
    env.process(waiter(env, events))
    env.run()
    assert done == [2.0]


def test_yield_none_is_zero_delay():
    env = Environment()
    times = []

    def proc(env):
        times.append(env.now)
        yield None
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [0.0, 0.0]


def test_yield_non_event_raises_in_process():
    env = Environment()

    def proc(env):
        yield 123

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_simultaneous_events_preserve_fifo_order():
    env = Environment()
    order = []

    def make(tag):
        def proc(env):
            yield env.timeout(1.0)
            order.append(tag)
        return proc

    for tag in range(5):
        env.process(make(tag)(env))
    env.run()
    assert order == list(range(5))


def test_run_until_already_processed_event_returns_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.run(until=proc) == "done"


def test_condition_failure_propagates():
    env = Environment()
    failures = []

    def failer(env, event):
        yield env.timeout(1.0)
        event.fail(RuntimeError("bad"))

    def waiter(env, events):
        try:
            yield AnyOf(env, events)
        except RuntimeError as exc:
            failures.append(str(exc))

    ev = env.event()
    env.process(failer(env, ev))
    env.process(waiter(env, [ev, env.timeout(5.0)]))
    env.run()
    assert failures == ["bad"]


def test_empty_anyof_triggers_immediately():
    env = Environment()
    hit = []

    def waiter(env):
        value = yield AnyOf(env, [])
        hit.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert hit == [(0.0, {})]


def test_event_repr_and_pending_value_access():
    env = Environment()
    event = env.event()
    assert not event.triggered
    with pytest.raises(AttributeError):
        _ = event.value
    with pytest.raises(AttributeError):
        _ = event.ok


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_nested_processes_chain_return_values():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return 10

    def middle(env):
        value = yield env.process(inner(env))
        return value * 2

    def outer(env):
        value = yield env.process(middle(env))
        return value + 1

    proc = env.process(outer(env))
    assert env.run(until=proc) == 21
