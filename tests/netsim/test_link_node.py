"""Unit tests for the link and node traversal models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simkit import Environment
from repro.netsim import Link, MessageFactory, NetworkNode, NodeSpec
from repro.netsim.tls import DEFAULT_TLS, NULL_TLS
from repro.netsim import units


def make_message(payload=units.kib(16), framing=0.0):
    return MessageFactory(framing_bytes=framing).create(payload, now=0.0)


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_serialization_delay_matches_units():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.0)
    assert link.serialization_delay(units.kib(16)) == pytest.approx(131.072e-6)


def test_link_traverse_takes_serialization_plus_latency():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.001)
    msg = make_message()

    def proc(env):
        yield from link.traverse(msg)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(131.072e-6 + 0.001)
    assert msg.hop_count() == 1
    assert list(msg.hop_totals) == ["link"]


def test_link_serializes_concurrent_messages():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.0)
    finish_times = []

    def sender(env, link):
        msg = make_message(units.mib(1))

        def run():
            yield from link.traverse(msg)
            finish_times.append(env.now)
        return run()

    env.process(sender(env, link))
    env.process(sender(env, link))
    env.run()
    one_mib = units.transmission_time(units.mib(1), units.gbps(1))
    assert finish_times[0] == pytest.approx(one_mib)
    assert finish_times[1] == pytest.approx(2 * one_mib)


def test_link_jitter_uses_rng_and_stays_in_bounds():
    env = Environment()
    rng = np.random.default_rng(0)
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.001,
                jitter_s=0.002, rng=rng)
    for _ in range(20):
        delay = link.propagation_delay()
        assert 0.001 <= delay <= 0.003


def test_link_jitter_without_rng_is_deterministic_midpoint():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.001, jitter_s=0.002)
    assert link.propagation_delay() == pytest.approx(0.002)


def test_link_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, "l", bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(env, "l", bandwidth_bps=1e9, latency_s=-1)


def test_link_utilization_and_counters():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.gbps(1), latency_s=0.0)
    msg = make_message(units.mib(10))

    def proc(env):
        yield from link.traverse(msg)

    env.process(proc(env))
    env.run()
    assert link.monitor.counter("messages").value == 1
    assert link.monitor.counter("bytes").value == msg.wire_bytes
    assert link.utilization() == pytest.approx(1.0)


def test_link_queue_length_observable_mid_transfer():
    env = Environment()
    link = Link(env, "l", bandwidth_bps=units.mbps(1), latency_s=0.0)

    def send(env, link):
        msg = make_message(units.mib(1))
        yield from link.traverse(msg)

    env.process(send(env, link))
    env.process(send(env, link))
    env.process(send(env, link))
    env.run(until=0.001)
    assert link.queue_length == 2


# ---------------------------------------------------------------------------
# NetworkNode
# ---------------------------------------------------------------------------

def test_node_service_time_includes_per_message_and_per_byte():
    env = Environment()
    spec = NodeSpec(per_message_seconds=1e-3, per_byte_seconds=1e-6, concurrency=1)
    node = NetworkNode(env, "n", spec)
    msg = make_message(payload=1000)
    assert node.service_time(msg) == pytest.approx(1e-3 + 1e-3)


def test_node_service_time_with_tls_is_larger():
    env = Environment()
    node = NetworkNode(env, "n")
    msg = make_message(units.mib(1))
    assert node.service_time(msg, DEFAULT_TLS) > node.service_time(msg, NULL_TLS)


def test_node_concurrency_limits_parallel_service():
    env = Environment()
    spec = NodeSpec(per_message_seconds=1.0, per_byte_seconds=0.0, concurrency=2)
    node = NetworkNode(env, "n", spec)
    finishes = []

    def handle(env, node):
        msg = make_message(0)

        def run():
            yield from node.traverse(msg)
            finishes.append(env.now)
        return run()

    for _ in range(4):
        env.process(handle(env, node))
    env.run()
    assert finishes == pytest.approx([1.0, 1.0, 2.0, 2.0])


def test_node_records_hop_with_role():
    env = Environment()
    node = NetworkNode(env, "dsn1", role="broker-host")
    msg = make_message()

    def proc(env):
        yield from node.traverse(msg)

    env.process(proc(env))
    env.run()
    assert list(msg.hop_totals) == ["broker-host"]
    assert msg.path[0] == "dsn1"


def test_node_utilization_bounded():
    env = Environment()
    spec = NodeSpec(per_message_seconds=0.5, per_byte_seconds=0.0, concurrency=1)
    node = NetworkNode(env, "n", spec)

    def proc(env):
        yield from node.traverse(make_message(0))

    env.process(proc(env))
    env.run()
    assert 0.0 < node.utilization() <= 1.0
    assert node.queue_length == 0
    assert node.in_service == 0
