"""Unit tests for the producer/consumer client façade (end-to-end in-sim)."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import Connection, MessageFactory, Network
from repro.netsim import units
from repro.amqp import (
    AckPolicy,
    Broker,
    BrokerCluster,
    ConsumerClient,
    ProducerClient,
    QueuePolicy,
)


def build_world(env, *, queue_policy=None, ack_policy=None):
    """One producer host, one DSN broker, one consumer host."""
    net = Network(env, "world")
    net.add_node("prod-host")
    net.add_node("dsn1", role="dsn")
    net.add_node("cons-host")
    net.connect("prod-host", "dsn1", bandwidth_bps=units.gbps(1), latency_s=0.0005)
    net.connect("dsn1", "cons-host", bandwidth_bps=units.gbps(1), latency_s=0.0005)

    broker = Broker(env, "rmqs1", net.get_node("dsn1"))
    cluster = BrokerCluster(env, "rabbitmq", [broker], net)
    cluster.declare_queue("work", policy=queue_policy or QueuePolicy(max_length=10_000))

    ack = ack_policy or AckPolicy(consumer_batch=1, publisher_batch=0, prefetch_count=10)

    pub_conn = Connection(env, "pub", [
        net.get_node("prod-host"),
        net.link_between("prod-host", "dsn1"),
        net.get_node("dsn1"),
    ])
    del_conn = Connection(env, "del", [
        net.link_between("dsn1", "cons-host"),
        net.get_node("cons-host"),
    ])
    producer = ProducerClient(env, "prod-0", cluster=cluster, connection=pub_conn,
                              broker=broker, ack_policy=ack)
    consumer = ConsumerClient(env, "cons-0", cluster=cluster, connection=del_conn,
                              broker=broker, ack_policy=ack)
    return net, cluster, producer, consumer


def test_end_to_end_publish_consume_ack():
    env = Environment()
    _, cluster, producer, consumer = build_world(env)
    consumer.subscribe("work")
    factory = MessageFactory("prod-0")
    consumed = []

    def produce(env):
        for i in range(5):
            message = factory.create(units.kib(16), now=env.now, routing_key="work",
                                     headers={"seq": i})
            ok = yield from producer.publish(message)
            assert ok

    def consume(env):
        for _ in range(5):
            message = yield consumer.get()
            consumed.append(message)
            yield from consumer.ack(message)

    env.process(produce(env))
    env.process(consume(env))
    env.run()
    assert len(consumed) == 5
    assert producer.published == 5
    assert consumer.received == 5
    assert cluster.get_queue("work").unacked_count == 0
    # Every consumed message has a full latency measurement.
    assert all(m.latency is not None and m.latency > 0 for m in consumed)


def test_message_hops_cover_full_path():
    env = Environment()
    _, _, producer, consumer = build_world(env)
    consumer.subscribe("work")
    factory = MessageFactory("prod-0")
    box = []

    def produce(env):
        message = factory.create(units.kib(16), now=env.now, routing_key="work")
        yield from producer.publish(message)

    def consume(env):
        message = yield consumer.get()
        box.append(message)

    env.process(produce(env))
    env.process(consume(env))
    env.run()
    elements = box[0].path
    assert "prod-host" in elements
    assert "prod-host->dsn1" in elements
    assert "dsn1->cons-host" in elements
    assert "cons-host" in elements


def test_unroutable_publish_returns_false():
    env = Environment()
    _, _, producer, _ = build_world(env)
    factory = MessageFactory("prod-0")

    def produce(env):
        message = factory.create(1024, now=env.now, routing_key="missing-queue")
        return (yield from producer.publish(message))

    ok = env.run(until=env.process(produce(env)))
    assert ok is False
    assert producer.rejected == 1


def test_reject_publish_retries_until_space():
    env = Environment()
    policy = QueuePolicy(max_length=1)
    _, cluster, producer, consumer = build_world(env, queue_policy=policy)
    consumer.subscribe("work", prefetch=1)
    factory = MessageFactory("prod-0")
    consumed = []

    def produce(env):
        results = []
        for i in range(3):
            message = factory.create(1024, now=env.now, routing_key="work")
            ok = yield from producer.publish(message)
            results.append(ok)
        return results

    def consume(env):
        for _ in range(3):
            message = yield consumer.get()
            consumed.append(message)
            yield from consumer.ack(message)

    produce_proc = env.process(produce(env))
    env.process(consume(env))
    results = env.run(until=produce_proc)
    env.run()
    assert results == [True, True, True]
    assert len(consumed) == 3
    # At least one publish had to be retried because the queue was full.
    assert producer.rejected >= 1


def test_publisher_confirm_batches_add_latency():
    env = Environment()
    ack_with_confirms = AckPolicy(consumer_batch=1, publisher_batch=2, prefetch_count=10)
    _, _, producer, consumer = build_world(env, ack_policy=ack_with_confirms)
    consumer.subscribe("work")
    factory = MessageFactory("prod-0")

    def produce(env):
        for _ in range(4):
            message = factory.create(1024, now=env.now, routing_key="work")
            yield from producer.publish(message)

    env.process(produce(env))
    env.run()
    assert producer.monitor.counter("confirm_batches").value == 2


def test_consumer_batch_acks_accumulate():
    env = Environment()
    ack = AckPolicy(consumer_batch=5, publisher_batch=0, prefetch_count=50)
    _, cluster, producer, consumer = build_world(env, ack_policy=ack)
    consumer.subscribe("work")
    factory = MessageFactory("prod-0")

    def produce(env):
        for _ in range(7):
            message = factory.create(1024, now=env.now, routing_key="work")
            yield from producer.publish(message)

    def consume(env):
        for _ in range(7):
            message = yield consumer.get()
            yield from consumer.ack(message)
        yield from consumer.flush_acks()

    env.process(produce(env))
    env.process(consume(env))
    env.run()
    queue = cluster.get_queue("work")
    assert queue.acked == 7
    assert queue.unacked_count == 0
    # 7 deliveries with a batch of 5 → one full batch + one flush.
    assert consumer.monitor.counter("ack_batches").value == 2


def test_prefetch_zero_subscription_uses_explicit_value():
    env = Environment()
    _, cluster, producer, consumer = build_world(env)
    consumer.subscribe("work", prefetch=1)
    factory = MessageFactory("prod-0")

    def produce(env):
        for _ in range(3):
            message = factory.create(1024, now=env.now, routing_key="work")
            yield from producer.publish(message)

    env.process(produce(env))
    env.run()
    # Only one message can be outstanding; the rest stay ready because the
    # consumer application never drains its mailbox/acks.
    assert cluster.get_queue("work").unacked_count == 1
    assert cluster.get_queue("work").ready_count == 2


def test_flush_confirms_noop_when_nothing_pending():
    env = Environment()
    _, _, producer, _ = build_world(env)

    def proc(env):
        yield from producer.flush_confirms()
        return env.now

    assert env.run(until=env.process(proc(env))) == 0.0
