"""The coordinator's O(kinds) hop fold against the per-hop walk it replaced.

``Message.record_hop`` keeps per-kind running totals ``[hops, seconds]``
on the message, and ``Coordinator.record_consume`` folds them.  The
reference below keeps the walk the coordinator used to do over a list of
every hop: subtotal each kind's durations per consume, in traversal order,
then add each subtotal to the run-wide dict.  The two must agree bit for
bit, key order included, because ``hop_time_by_kind`` and
``hop_count_by_kind`` are part of every serialized result.

Fan-out copies of a broadcast share one ``Message``, so one message can be
consumed several times with hops appended between the consumes; each
consume must fold exactly the hops recorded so far.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.harness.coordinator import Coordinator
from repro.netsim import MessageFactory
from repro.simkit import Environment

#: Element kinds that occur in runs: links plus every node role on a path.
KINDS = ("link", "dsn", "switch", "compute", "gateway", "proxy", "lb",
         "ingress")


def reference_walk(hops, multiplicity, times, counts):
    """Fold one consume by walking every (kind, arrived, departed) hop."""
    if not hops:
        return
    breakdown: dict[str, float] = {}
    for kind, arrived, departed in hops:
        duration = departed - arrived
        if kind in breakdown:
            breakdown[kind] += duration
        else:
            breakdown[kind] = duration
        counts[kind] = counts.get(kind, 0) + multiplicity
    for kind, seconds in breakdown.items():
        times[kind] = times.get(kind, 0.0) + seconds


def bits(totals: dict) -> list:
    """``totals`` items with floats as hex, so == compares bit for bit."""
    return [(kind, value.hex() if isinstance(value, float) else value)
            for kind, value in totals.items()]


# Times spread over twelve orders of magnitude, so that adding the same
# durations in another order or grouping would round differently.
_time = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                  allow_infinity=False)
_duration = st.one_of(st.just(0.0),
                      st.floats(min_value=1e-9, max_value=1e3))
_hop = st.tuples(st.just("hop"), st.integers(0, 3), st.sampled_from(KINDS),
                 _time, _duration)
_consume = st.tuples(st.just("consume"), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(multiplicities=st.lists(st.integers(1, 3), min_size=4, max_size=4),
       steps=st.lists(st.one_of(_hop, _consume), max_size=80))
def test_fold_equals_walk_bit_for_bit(multiplicities, steps):
    env = Environment()
    coordinator = Coordinator(env, expected_consumed=10 ** 6)
    factory = MessageFactory("p")
    messages = [factory.create(1024, now=0.0, multiplicity=k)
                for k in multiplicities]
    walked = [[] for _ in messages]
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for step in steps:
        index = step[1]
        message = messages[index]
        if step[0] == "hop":
            _, _, kind, arrived, duration = step
            departed = arrived + duration
            message.record_hop(f"{kind}{len(walked[index])}", kind, arrived,
                               departed)
            walked[index].append((kind, arrived, departed))
        else:
            # A message consumed again is a fan-out copy: it folds every
            # hop recorded so far, including those after the last consume.
            coordinator.record_consume(message, f"c{index}")
            reference_walk(walked[index], message.multiplicity, times,
                           counts)
    assert bits(coordinator.hop_time_by_kind) == bits(times)
    assert list(coordinator.hop_count_by_kind.items()) == list(counts.items())
    for message, hops in zip(messages, walked):
        assert message.hop_count() == len(hops)
        assert message.path == [f"{kind}{i}"
                                for i, (kind, _, _) in enumerate(hops)]
        breakdown: dict[str, float] = {}
        reference_walk(hops, 1, breakdown, {})
        assert bits(message.hop_breakdown()) == bits(breakdown)


def test_fan_out_consume_folds_the_prefix_recorded_so_far():
    env = Environment()
    coordinator = Coordinator(env, expected_consumed=10)
    message = MessageFactory("p").create(1024, now=0.0, multiplicity=2)
    message.record_hop("l0", "link", 0.0, 0.5)
    message.record_hop("dsn1", "dsn", 0.5, 0.75)
    coordinator.record_consume(message, "c0")
    message.record_hop("l1", "link", 0.75, 1.0)
    coordinator.record_consume(message, "c1")
    assert message.hop_totals == {"link": [2, 0.75], "dsn": [1, 0.25]}
    assert coordinator.hop_count_by_kind == {"link": 2 * (1 + 2),
                                             "dsn": 2 * (1 + 1)}
    assert coordinator.hop_time_by_kind == {"link": 0.5 + 0.75,
                                            "dsn": 0.25 + 0.25}
