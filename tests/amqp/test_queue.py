"""Unit tests for classic queue dispatch, prefetch, acks and overflow."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import MessageFactory
from repro.amqp import OverflowPolicy, QueuePolicy
from repro.amqp.queue import ClassicQueue


def make_messages(n, payload=1024):
    factory = MessageFactory("prod")
    return [factory.create(payload, now=0.0, routing_key="q") for _ in range(n)]


def collector(env, received, delay=0.0, tag=None):
    """Build a deliver function appending (tag, message) to ``received``."""

    def deliver(message):
        if delay:
            yield env.timeout(delay)
        else:
            yield env.timeout(0)
        received.append((tag, message))

    return deliver


def test_publish_and_single_consumer_delivery():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"))
    for msg in make_messages(3):
        outcome = queue.publish(msg)
        assert outcome.accepted
    env.run()
    assert len(received) == 3
    assert queue.delivered == 3
    assert queue.ready_count == 0


def test_round_robin_across_consumers():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"))
    queue.subscribe("c2", collector(env, received, tag="c2"))
    for msg in make_messages(6):
        queue.publish(msg)
    env.run()
    tags = [tag for tag, _ in received]
    assert tags.count("c1") == 3
    assert tags.count("c2") == 3


def test_prefetch_limits_outstanding_deliveries():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"), prefetch=2)
    for msg in make_messages(5):
        queue.publish(msg)
    env.run()
    # Without acks, only the prefetch window is ever delivered.
    assert len(received) == 2
    assert queue.ready_count == 3
    assert queue.unacked_count == 2


def test_ack_returns_credit_and_resumes_dispatch():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []

    def deliver(message):
        yield env.timeout(0)
        received.append(message)

    queue.subscribe("c1", deliver, prefetch=1)
    for msg in make_messages(3):
        queue.publish(msg)

    def acker(env):
        while queue.acked < 3:
            yield env.timeout(0.01)
            if received and queue.unacked_count:
                last = received[-1]
                queue.ack(last.headers["delivery_tag"])

    env.process(acker(env))
    env.run()
    assert len(received) == 3
    assert queue.acked == 3
    assert queue.unacked_count == 0


def test_cumulative_ack_multiple_true():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"), prefetch=0)
    for msg in make_messages(4):
        queue.publish(msg)
    env.run()
    tags = [m.headers["delivery_tag"] for _, m in received]
    settled = queue.ack(max(tags), multiple=True)
    assert settled == 4
    assert queue.unacked_count == 0


def test_cumulative_ack_settles_only_the_acking_consumers_deliveries():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    first = queue.subscribe("a", collector(env, received, tag="a"), prefetch=2)
    second = queue.subscribe("b", collector(env, received, tag="b"),
                             prefetch=2)
    for msg in make_messages(4):
        queue.publish(msg)
    env.run()
    tags = {consumer: [m.headers["delivery_tag"] for tag, m in received
                       if tag == consumer] for consumer in ("a", "b")}
    assert tags == {"a": [1, 3], "b": [2, 4]}
    # A's cumulative ack up to tag 3 leaves B's tag 2 and B's credit alone.
    assert queue.ack(3, multiple=True) == 2
    assert (first.outstanding, list(first.unacked_tags)) == (0, [])
    assert (second.outstanding, list(second.unacked_tags)) == (2, [2, 4])
    assert queue.unacked_count == 2
    # A settled tag names no consumer, so acking up to it again settles
    # nothing; B's own cumulative ack settles B's deliveries.
    assert queue.ack(3, multiple=True) == 0
    assert queue.ack(4, multiple=True) == 2
    assert queue.unacked_count == 0


def test_ack_unknown_tag_is_noop():
    env = Environment()
    queue = ClassicQueue(env, "q")
    assert queue.ack(999) == 0


def test_reject_publish_when_full():
    env = Environment()
    policy = QueuePolicy(max_length=2, overflow=OverflowPolicy.REJECT_PUBLISH)
    queue = ClassicQueue(env, "q", policy=policy)
    msgs = make_messages(3)
    assert queue.publish(msgs[0]).accepted
    assert queue.publish(msgs[1]).accepted
    outcome = queue.publish(msgs[2])
    assert not outcome.accepted
    assert outcome.reason == "queue-full"
    assert queue.rejected == 1


def test_drop_head_overflow_keeps_newest():
    env = Environment()
    policy = QueuePolicy(max_length=2, overflow=OverflowPolicy.DROP_HEAD)
    queue = ClassicQueue(env, "q", policy=policy)
    msgs = make_messages(3)
    for msg in msgs:
        assert queue.publish(msg).accepted
    assert queue.ready_count == 2
    remaining_ids = [m.message_id for m in queue._ready]
    assert msgs[0].message_id not in remaining_ids
    assert msgs[2].message_id in remaining_ids


def test_byte_limit_enforced():
    env = Environment()
    policy = QueuePolicy(max_length=0, max_length_bytes=2048)
    queue = ClassicQueue(env, "q", policy=policy)
    msgs = make_messages(3, payload=1024)
    assert queue.publish(msgs[0]).accepted
    assert queue.publish(msgs[1]).accepted
    assert not queue.publish(msgs[2]).accepted


def test_nack_requeue_puts_message_back_at_head():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"), prefetch=1)
    msgs = make_messages(1)
    queue.publish(msgs[0])
    env.run()
    assert len(received) == 1
    tag = received[0][1].headers["delivery_tag"]
    assert queue.nack_requeue(tag) is True
    assert queue.ready_count == 1
    assert queue.unacked_count == 0
    assert queue.nack_requeue(tag) is False


def test_cancel_consumer_stops_dispatch_to_it():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"))
    queue.cancel("c1")
    for msg in make_messages(2):
        queue.publish(msg)
    env.run(until=1.0)
    assert received == []
    assert queue.ready_count == 2
    assert queue.consumer_count == 0


def test_duplicate_consumer_tag_rejected():
    env = Environment()
    queue = ClassicQueue(env, "q")
    queue.subscribe("c1", collector(env, [], tag="c1"))
    with pytest.raises(ValueError):
        queue.subscribe("c1", collector(env, [], tag="c1"))


def test_messages_delivered_before_subscription_wait_in_queue():
    env = Environment()
    queue = ClassicQueue(env, "q")
    for msg in make_messages(2):
        queue.publish(msg)
    env.run(until=0.5)
    assert queue.ready_count == 2
    received = []
    queue.subscribe("late", collector(env, received, tag="late"))
    env.run()
    assert len(received) == 2


def test_depth_counts_ready_plus_unacked():
    env = Environment()
    queue = ClassicQueue(env, "q")
    received = []
    queue.subscribe("c1", collector(env, received, tag="c1"), prefetch=1)
    for msg in make_messages(3):
        queue.publish(msg)
    env.run()
    assert queue.depth == 3  # 1 unacked + 2 ready
    assert queue.published == 3


def test_published_at_timestamp_set():
    env = Environment()
    queue = ClassicQueue(env, "q")
    msg = make_messages(1)[0]

    def later(env):
        yield env.timeout(2.0)
        queue.publish(msg)

    env.process(later(env))
    env.run()
    assert msg.published_at == pytest.approx(2.0)
