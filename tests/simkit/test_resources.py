"""Unit tests for simkit resources and stores."""

from __future__ import annotations

import pytest

from repro.simkit import Environment, Resource, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(env, res, hold, tag):
        with res.request() as req:
            yield req
            granted.append((tag, env.now))
            yield env.timeout(hold)

    env.process(user(env, res, 2.0, "a"))
    env.process(user(env, res, 2.0, "b"))
    env.process(user(env, res, 2.0, "c"))
    env.run()
    times = dict((tag, t) for tag, t in granted)
    assert times["a"] == 0.0
    assert times["b"] == 0.0
    assert times["c"] == 2.0


def test_resource_count_and_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def waiter(env, res):
        with res.request() as req:
            yield req

    env.process(holder(env, res))
    env.process(waiter(env, res))
    env.run(until=1.0)
    assert res.count == 1
    assert len(res.queue) == 1
    env.run()
    assert res.count == 0


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield env.timeout(1.0)

    for tag in range(4):
        env.process(user(env, res, tag))
    env.run()
    assert order == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, store):
        for item in ["a", "b", "c"]:
            yield store.put(item)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env, store):
        yield store.get()
        times.append(env.now)

    def producer(env, store):
        yield env.timeout(4.0)
        yield store.put("x")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert times == [4.0]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer(env, store):
        yield store.put(1)
        yield store.put(2)
        done.append(env.now)

    def consumer(env, store):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert done == [5.0]


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
