"""Unit tests for simkit resources, containers and stores."""

from __future__ import annotations

import pytest

from repro.simkit import Container, Environment, FilterStore, PriorityResource, Resource, Store


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


def test_priority_resource_orders_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(1.0)

    def user(env, res, priority, tag):
        # Arrive slightly after the holder so all requests queue.
        yield env.timeout(0.1)
        with res.request(priority=priority) as req:
            yield req
            order.append(tag)
            yield env.timeout(0.5)

    env.process(holder(env, res))
    env.process(user(env, res, 5, "low"))
    env.process(user(env, res, 1, "high"))
    env.process(user(env, res, 3, "mid"))
    env.run()
    assert order == ["high", "mid", "low"]


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

def test_container_put_get_levels():
    env = Environment()
    tank = Container(env, capacity=100.0, init=10.0)

    def producer(env, tank):
        yield tank.put(40.0)

    def consumer(env, tank):
        yield tank.get(25.0)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert tank.level == pytest.approx(25.0)


def test_container_get_blocks_until_available():
    env = Environment()
    tank = Container(env, capacity=100.0, init=0.0)
    got = []

    def consumer(env, tank):
        yield tank.get(10.0)
        got.append(env.now)

    def producer(env, tank):
        yield env.timeout(3.0)
        yield tank.put(10.0)

    env.process(consumer(env, tank))
    env.process(producer(env, tank))
    env.run()
    assert got == [3.0]


def test_container_put_blocks_when_full():
    env = Environment()
    tank = Container(env, capacity=10.0, init=10.0)
    done = []

    def producer(env, tank):
        yield tank.put(5.0)
        done.append(env.now)

    def consumer(env, tank):
        yield env.timeout(2.0)
        yield tank.get(6.0)

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert done == [2.0]


def test_container_rejects_bad_arguments():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=-1)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.put(0)
    with pytest.raises(ValueError):
        tank.get(-1)


# ---------------------------------------------------------------------------
# Store / FilterStore
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


def test_store_try_put_and_try_get():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    ok, item = store.try_get()
    assert ok and item == "a"
    ok, item = store.try_get()
    assert not ok and item is None


def test_store_len():
    env = Environment()
    store = Store(env)
    store.try_put(1)
    store.try_put(2)
    assert len(store) == 2


def test_filter_store_selects_matching_item():
    env = Environment()
    store = FilterStore(env)
    received = []

    def producer(env, store):
        yield store.put({"key": 1})
        yield store.put({"key": 2})

    def consumer(env, store):
        item = yield store.get(lambda m: m["key"] == 2)
        received.append(item["key"])

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == [2]
    assert list(store.items) == [{"key": 1}]


def test_filter_store_blocked_get_does_not_block_other_gets():
    env = Environment()
    store = FilterStore(env)
    received = []

    def consumer(env, store, key, tag):
        item = yield store.get(lambda m, key=key: m == key)
        received.append((tag, item, env.now))

    def producer(env, store):
        yield env.timeout(1.0)
        yield store.put("b")
        yield env.timeout(1.0)
        yield store.put("a")

    env.process(consumer(env, store, "a", "first"))
    env.process(consumer(env, store, "b", "second"))
    env.process(producer(env, store))
    env.run()
    assert ("second", "b", 1.0) in received
    assert ("first", "a", 2.0) in received


def test_store_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


@pytest.mark.parametrize("store_cls", [Store, FilterStore])
def test_cancelled_get_leaves_the_next_item_to_a_fresh_get(store_cls):
    env = Environment()
    store = store_cls(env)
    cancelled = store.get()
    cancelled.cancel()
    cancelled.cancel()  # idempotent
    received = []

    def consumer(env, store):
        yield env.timeout(1.0)
        store.put("a")
        item = yield store.get()
        received.append(item)

    env.process(consumer(env, store))
    env.run()
    assert received == ["a"]
    assert not cancelled.triggered
    assert len(store) == 0


def test_filter_store_cancelled_filtered_get_does_not_take_its_match():
    env = Environment()
    store = FilterStore(env)
    cancelled = store.get(lambda item: item == "b")
    waiting = store.get(lambda item: item == "b")
    cancelled.cancel()
    store.put("a")
    store.put("b")
    env.run()
    assert not cancelled.triggered
    assert waiting.value == "b"
    assert list(store.items) == ["a"]


def test_cancel_after_get_succeeded_keeps_the_item():
    env = Environment()
    store = Store(env)
    store.put("a")
    get = store.get()
    get.cancel()
    env.run()
    assert get.value == "a"
    assert len(store) == 0
