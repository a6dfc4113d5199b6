"""Property-based tests of the discrete-event engine (hypothesis).

Invariants checked:

* simulated time never runs backwards, regardless of the schedule,
* a FIFO resource never exceeds its capacity and serves every requester,
* stores conserve items (everything put is eventually got, in order),
* ``AnyOf`` triggers exactly at the minimum child time.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.simkit import AnyOf, Environment, Resource, Store

#: Keep the per-example simulations small so the suite stays fast.
_settings = settings(max_examples=40, deadline=None)

delays = st.lists(st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=20)


@_settings
@given(delays=delays)
def test_time_is_monotonic_under_arbitrary_timeouts(delays):
    env = Environment()
    observed = []

    def waiter(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


@_settings
@given(delays=delays)
def test_anyof_triggers_at_earliest_child(delays):
    env = Environment()
    finish = []

    def waiter(env):
        yield AnyOf(env, [env.timeout(d) for d in delays])
        finish.append(env.now)

    env.process(waiter(env))
    env.run()
    assert finish == [min(delays)]


@_settings
@given(capacity=st.integers(min_value=1, max_value=5),
       holds=st.lists(st.floats(min_value=0.01, max_value=1.0,
                                allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=15))
def test_resource_never_exceeds_capacity_and_serves_everyone(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    served = []
    max_in_use = 0

    def user(env, resource, hold, tag):
        nonlocal max_in_use
        with resource.request() as req:
            yield req
            max_in_use = max(max_in_use, resource.count)
            yield env.timeout(hold)
            served.append(tag)

    for tag, hold in enumerate(holds):
        env.process(user(env, resource, hold, tag))
    env.run()
    assert max_in_use <= capacity
    assert sorted(served) == list(range(len(holds)))
    assert resource.count == 0


@_settings
@given(items=st.lists(st.integers(), min_size=1, max_size=30),
       capacity=st.integers(min_value=1, max_value=5))
def test_store_conserves_items_in_fifo_order(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer(env, store):
        for item in items:
            yield store.put(item)

    def consumer(env, store):
        for _ in range(len(items)):
            value = yield store.get()
            received.append(value)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == items
    assert len(store.items) == 0
