"""Unit tests for exchanges, bindings and queue/memory/ack policies."""

from __future__ import annotations

import pytest

from repro.amqp import ExchangeType, OverflowPolicy, QueuePolicy, MemoryPolicy, AckPolicy
from repro.amqp.exchange import Exchange, _topic_matches


# ---------------------------------------------------------------------------
# Exchange routing
# ---------------------------------------------------------------------------

def test_direct_exchange_routes_by_exact_key():
    ex = Exchange("jobs", ExchangeType.DIRECT)
    ex.bind("q1", "work")
    ex.bind("q2", "work")
    ex.bind("q3", "other")
    assert ex.route("work") == ["q1", "q2"]
    assert ex.route("other") == ["q3"]
    assert ex.route("missing") == []


def test_fanout_exchange_ignores_routing_key():
    ex = Exchange("bcast", ExchangeType.FANOUT)
    ex.bind("q1")
    ex.bind("q2", "whatever")
    assert ex.route("anything") == ["q1", "q2"]


def test_fanout_deduplicates_queues():
    ex = Exchange("bcast", ExchangeType.FANOUT)
    ex.bind("q1", "a")
    ex.bind("q1", "b")
    assert ex.route("x") == ["q1"]


def test_bind_is_idempotent():
    ex = Exchange("jobs")
    ex.bind("q1", "work")
    ex.bind("q1", "work")
    assert len(ex.bindings) == 1


def test_unbind_removes_binding():
    ex = Exchange("jobs")
    ex.bind("q1", "work")
    ex.unbind("q1", "work")
    assert ex.route("work") == []


def test_topic_exchange_wildcards():
    ex = Exchange("events", ExchangeType.TOPIC)
    ex.bind("all", "#")
    ex.bind("detector", "detector.*")
    ex.bind("greta_events", "detector.greta.events")
    assert set(ex.route("detector.greta.events")) == {"all", "greta_events"}
    assert set(ex.route("detector.lcls")) == {"all", "detector"}
    assert ex.route("beamline.status") == ["all"]


@pytest.mark.parametrize("pattern,key,expected", [
    ("#", "a.b.c", True),
    ("#", "", True),
    ("*", "a", True),
    ("*", "a.b", False),
    ("a.*", "a.b", True),
    ("a.*", "a.b.c", False),
    ("a.#", "a", True),
    ("a.#", "a.b.c.d", True),
    ("a.#.z", "a.z", True),
    ("a.#.z", "a.b.c.z", True),
    ("a.#.z", "a.b.c", False),
    ("a.b", "a.b", True),
    ("a.b", "a.c", False),
])
def test_topic_match_table(pattern, key, expected):
    assert _topic_matches(pattern, key) is expected


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_queue_policy_accepts_within_limits():
    policy = QueuePolicy(max_length=2, max_length_bytes=100)
    assert policy.accepts(0, 0, 50)
    assert policy.accepts(1, 50, 50)
    assert not policy.accepts(2, 50, 10)      # length limit
    assert not policy.accepts(1, 80, 30)      # byte limit


def test_queue_policy_unlimited_by_default_zero():
    policy = QueuePolicy(max_length=0, max_length_bytes=0)
    assert policy.accepts(10**6, 10**12, 10**9)


def test_memory_policy_split():
    policy = MemoryPolicy(total_bytes=100.0, data_fraction=0.8)
    assert policy.data_bytes == pytest.approx(80.0)
    assert policy.control_bytes == pytest.approx(20.0)
    assert policy.budget_for(is_control=True) == pytest.approx(20.0)
    assert policy.budget_for(is_control=False) == pytest.approx(80.0)


def test_overflow_policy_values():
    assert OverflowPolicy.REJECT_PUBLISH.value == "reject-publish"
    assert OverflowPolicy.DROP_HEAD.value == "drop-head"


def test_ack_policy_defaults():
    policy = AckPolicy()
    assert policy.consumer_batch > 0
    assert policy.publisher_batch > 0
    assert policy.prefetch_count > 0


def test_ack_policy_rejects_a_prefetch_window_below_the_ack_batch():
    with pytest.raises(ValueError, match="prefetch_count 9"):
        AckPolicy(consumer_batch=10, prefetch_count=9)
    # per_message acks every delivery, so any window of 1 or more works.
    AckPolicy(consumer_batch=10, prefetch_count=1, mode="per_message")
    # 0 is the unlimited window, and a window equal to the batch fills it.
    AckPolicy(consumer_batch=10, prefetch_count=0)
    AckPolicy(consumer_batch=10, prefetch_count=10)
    AckPolicy(consumer_batch=0, prefetch_count=1)
