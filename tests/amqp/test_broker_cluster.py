"""Unit tests for the broker, the 3-node cluster and inter-broker relays."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import MessageFactory, Network
from repro.netsim import units
from repro.amqp import (
    Broker,
    BrokerCluster,
    ExchangeType,
    MemoryPolicy,
    QueuePolicy,
)


def build_cluster(env, n_brokers=3):
    """A minimal DSN network with one broker per DSN."""
    net = Network(env, "ace")
    for i in range(n_brokers):
        net.add_node(f"dsn{i+1}", role="dsn")
    for i in range(n_brokers):
        for j in range(i + 1, n_brokers):
            net.connect(f"dsn{i+1}", f"dsn{j+1}", bandwidth_bps=units.gbps(10),
                        latency_s=0.0001)
    brokers = [Broker(env, f"rmqs{i+1}", net.get_node(f"dsn{i+1}"))
               for i in range(n_brokers)]
    cluster = BrokerCluster(env, "rabbitmq", brokers, net)
    return net, brokers, cluster


def msg(payload=units.kib(16), key="work"):
    return MessageFactory("prod").create(payload, now=0.0, routing_key=key)


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------

def test_broker_declare_queue_binds_default_exchange():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.declare_queue("q1")
    assert broker.route("", "q1") == ["q1"]


def test_broker_declare_exchange_conflicting_type_rejected():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.declare_exchange("e", ExchangeType.DIRECT)
    with pytest.raises(ValueError):
        broker.declare_exchange("e", ExchangeType.FANOUT)


def test_broker_publish_local_routes_to_queue():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.declare_queue("q1")

    def proc(env):
        outcomes = yield from broker.publish_local(msg(key="q1"), "", "q1")
        return outcomes

    outcomes = env.run(until=env.process(proc(env)))
    assert len(outcomes) == 1 and outcomes[0].accepted
    assert broker.queues["q1"].ready_count == 1


def test_broker_publish_unroutable_returns_empty():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]

    def proc(env):
        return (yield from broker.publish_local(msg(key="nope"), "", "nope"))

    outcomes = env.run(until=env.process(proc(env)))
    assert outcomes == []
    assert broker.monitor.counter("unroutable").value == 1


def test_broker_unknown_exchange_raises():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    with pytest.raises(KeyError):
        brokers[0].route("missing", "key")


def test_broker_memory_pressure_blocks_data_publishes():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.memory_policy = MemoryPolicy(total_bytes=units.kib(64), data_fraction=0.5)
    broker.declare_queue("q1", policy=QueuePolicy())  # unbounded queue

    def fill(env):
        # Fill beyond the 32 KiB data budget with 16 KiB messages.
        for _ in range(3):
            yield from broker.publish_local(msg(key="q1"), "", "q1")
        return (yield from broker.publish_local(msg(key="q1"), "", "q1"))

    outcomes = env.run(until=env.process(fill(env)))
    assert not outcomes[0].accepted
    assert outcomes[0].reason == "memory-watermark"
    assert broker.memory_pressure()


def test_broker_control_queue_uses_control_budget():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.declare_queue("ctrl", is_control=True)
    broker.queues["ctrl"].publish(msg(payload=1024, key="ctrl"))
    assert broker.memory_used(control=True) == pytest.approx(1024)
    assert broker.memory_used(control=False) == 0.0


def test_broker_describe_and_depths():
    env = Environment()
    _, brokers, _ = build_cluster(env, 1)
    broker = brokers[0]
    broker.declare_queue("q1")
    broker.queues["q1"].publish(msg(key="q1"))
    assert broker.queue_depths()["q1"] == 1
    assert broker.describe()["host"] == "dsn1"


# ---------------------------------------------------------------------------
# BrokerCluster
# ---------------------------------------------------------------------------

def test_cluster_requires_brokers():
    env = Environment()
    net = Network(env)
    with pytest.raises(ValueError):
        BrokerCluster(env, "empty", [], net)


def test_cluster_round_robin_queue_placement():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_queue("q1")
    cluster.declare_queue("q2")
    cluster.declare_queue("q3")
    cluster.declare_queue("q4")
    leaders = [cluster.queue_leader(f"q{i}").name for i in range(1, 5)]
    assert leaders == ["rmqs1", "rmqs2", "rmqs3", "rmqs1"]


def test_cluster_declare_queue_idempotent():
    env = Environment()
    _, _, cluster = build_cluster(env)
    q1 = cluster.declare_queue("q1")
    q2 = cluster.declare_queue("q1")
    assert q1 is q2


def test_cluster_client_assignment_round_robin():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    assigned = [cluster.assign_client_broker().name for _ in range(4)]
    assert assigned == ["rmqs1", "rmqs2", "rmqs3", "rmqs1"]


def test_cluster_publish_relays_to_leader():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_queue("q1", leader=brokers[1])
    cluster.declare_exchange("jobs", ExchangeType.DIRECT)
    cluster.bind_queue("jobs", "q1", "work")
    message = msg()

    def proc(env):
        return (yield from cluster.publish(brokers[0], message, "jobs", "work"))

    outcomes = env.run(until=env.process(proc(env)))
    assert outcomes[0].accepted
    assert cluster.get_queue("q1").ready_count == 1
    assert cluster.monitor.counter("interbroker_messages").value == 1
    # The relay shows up in the message's path.
    assert "dsn1->dsn2" in message.path


def test_cluster_routes_each_relay_pair_once(monkeypatch):
    env = Environment()
    net, brokers, cluster = build_cluster(env)
    routed = []
    route = Network.route

    def counting_route(self, src, dst):
        routed.append((src, dst))
        return route(self, src, dst)

    monkeypatch.setattr(Network, "route", counting_route)
    cluster.declare_queue("q1", leader=brokers[1])
    cluster.declare_queue("q2", leader=brokers[2])
    messages = [msg(key=key) for key in ("q1", "q2") * 3]

    def proc(env):
        for message in messages:
            yield from cluster.publish(brokers[0], message, "",
                                       message.routing_key)

    env.run(until=env.process(proc(env)))
    assert cluster.monitor.counter("interbroker_messages").value == 6
    assert routed == [("dsn1", "dsn2"), ("dsn1", "dsn3")]
    # Every relay still crosses the routed link, then the leader's host.
    assert [message.path for message in messages] == [
        ["dsn1->dsn2", "dsn2"], ["dsn1->dsn3", "dsn3"]] * 3
    assert all(message.hop_totals["link"][0] == 1 for message in messages)


def test_cluster_publish_local_leader_has_no_relay():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_queue("q1", leader=brokers[0])
    message = msg(key="q1")

    def proc(env):
        return (yield from cluster.publish(brokers[0], message, "", "q1"))

    outcomes = env.run(until=env.process(proc(env)))
    assert outcomes[0].accepted
    assert "interbroker_messages" not in cluster.monitor.counters


def test_cluster_fanout_copies_to_all_queues():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_exchange("bcast", ExchangeType.FANOUT)
    for i in range(3):
        cluster.declare_queue(f"sub{i}")
        cluster.bind_queue("bcast", f"sub{i}")
    message = msg(key="")

    def proc(env):
        return (yield from cluster.publish(brokers[0], message, "bcast", ""))

    outcomes = env.run(until=env.process(proc(env)))
    assert len(outcomes) == 3
    assert all(o.accepted for o in outcomes)
    assert cluster.total_depth() == 3


def test_cluster_subscribe_with_relay_and_ack():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_queue("q1", leader=brokers[0])
    received = []

    def deliver(message):
        yield env.timeout(0)
        received.append(message)

    cluster.subscribe("q1", "c1", deliver, consumer_broker=brokers[2], prefetch=0)
    message = msg(key="q1")

    def proc(env):
        return (yield from cluster.publish(brokers[0], message, "", "q1"))

    env.run(until=env.process(proc(env)))
    env.run()
    assert len(received) == 1
    assert "dsn1->dsn3" in message.path
    settled = cluster.ack("q1", received[0].headers["delivery_tag"])
    assert settled == 1


def test_cluster_unknown_queue_raises():
    env = Environment()
    _, _, cluster = build_cluster(env)
    with pytest.raises(KeyError):
        cluster.queue_leader("missing")
    with pytest.raises(KeyError):
        cluster.get_queue("missing")


def test_cluster_describe_lists_queue_leaders():
    env = Environment()
    _, brokers, cluster = build_cluster(env)
    cluster.declare_queue("q1", leader=brokers[2])
    assert cluster.describe()["queues"]["q1"] == "rmqs3"
    assert cluster.queues() == ["q1"]
