"""Link and node traversal on ``HandoffServer`` against the Resource-based
reference.

``ReferenceLink`` and ``ReferenceNode`` keep the traversal the hop servers
had before :class:`~repro.simkit.HandoffServer`: a ``Resource`` request, a
grant event, then the service timeout computed at grant.  Both models run
the same frames through the same topology, with every link drawing jitter
from one shared ``BatchedUniform`` stream.  The hop completions (time,
element, frame) and the jitter draws (time, link, value) must come out
identical, bit for bit and in the same order: the order of draws from the
shared stream is what the figures' results depend on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.netsim import Link, MessageFactory, NetworkNode, NodeSpec
from repro.netsim.tls import NULL_TLS
from repro.simkit import BatchedUniform, Environment, Resource


class ReferenceLink(Link):
    """A link whose wire is a ``Resource``: request, grant, serialize."""

    def __init__(self, env, name, **kwargs):
        super().__init__(env, name, **kwargs)
        self._wire = Resource(env, capacity=1)

    def traverse(self, message):
        arrived = self.env.now
        multiplicity = message.multiplicity
        if self.down_until > self.env.now:
            yield self.env.timeout(self.down_until - self.env.now)
        with self._wire.request() as grant:
            yield grant
            tx = (self.serialization_delay(message.wire_bytes)
                  * multiplicity * self.slowdown)
            self._busy_time += tx
            yield self.env.timeout(tx)
        yield self.env.timeout(self.propagation_delay())
        message.record_hop(self.name, "link", arrived, self.env.now)


class ReferenceNode(NetworkNode):
    """A node whose CPU is a ``Resource``: request, grant, serve."""

    def __init__(self, env, name, spec):
        super().__init__(env, name, spec)
        self._cpu = Resource(env, capacity=max(1, spec.concurrency))

    def traverse(self, message, tls=NULL_TLS):
        arrived = self.env.now
        with self._cpu.request() as grant:
            yield grant
            cost = self.service_time(message, tls) * message.multiplicity
            self._busy_time += cost
            yield self.env.timeout(cost)
        message.record_hop(self.name, self.role, arrived, self.env.now)


class RecordingJitter:
    """One link's view of the shared jitter stream, logging every draw."""

    def __init__(self, env, name, shared, draws):
        self.env = env
        self.name = name
        self.shared = shared
        self.draws = draws

    def uniform(self, low, high):
        value = self.shared.uniform(low, high)
        self.draws.append((self.env.now, self.name, value))
        return value


def simulate(link_cls, node_cls, *, seed, links, nodes, frames,
             weather=(), flaps=()):
    """Run ``frames`` through the topology; return (hops, draws, busy).

    ``links`` is a list of (bandwidth_bps, latency_s, jitter_s), ``nodes``
    a list of NodeSpec.  A frame is (arrival_s, payload_bytes,
    multiplicity, path), its path a list of ("link" | "node", index).
    ``weather`` holds (at_s, slowdown) changes applied to every link and
    ``flaps`` (at_s, link index, down_s) outages.  Every frame and fault
    is scheduled at time 0, before any traversal starts.
    """
    env = Environment()
    shared = BatchedUniform(np.random.default_rng(seed), batch=7)
    draws: list = []
    hops: list = []
    wires = [link_cls(env, f"l{i}", bandwidth_bps=bandwidth,
                      latency_s=latency, jitter_s=jitter,
                      rng=RecordingJitter(env, f"l{i}", shared, draws))
             for i, (bandwidth, latency, jitter) in enumerate(links)]
    hosts = [node_cls(env, f"n{i}", spec) for i, spec in enumerate(nodes)]
    factory = MessageFactory("p")

    def send(tag, arrival, payload, multiplicity, path):
        yield env.timeout(arrival)
        message = factory.create(payload, now=env.now,
                                 multiplicity=multiplicity)
        for kind, index in path:
            element = wires[index] if kind == "link" else hosts[index]
            yield from element.traverse(message)
            hops.append((env.now, element.name, tag))

    def change_weather(at, slowdown):
        yield env.timeout(at)
        for wire in wires:
            wire.slowdown = slowdown

    def flap(at, index, down):
        yield env.timeout(at)
        wires[index].down_until = env.now + down

    for at, slowdown in weather:
        env.process(change_weather(at, slowdown))
    for at, index, down in flaps:
        env.process(flap(at, index, down))
    for tag, (arrival, payload, multiplicity, path) in enumerate(frames):
        env.process(send(tag, arrival, payload, multiplicity, path))
    env.run()
    busy = [e._busy_time for e in wires + hosts]
    return hops, draws, busy


def assert_equivalent(**topology):
    reference = simulate(ReferenceLink, ReferenceNode, **topology)
    handoff = simulate(Link, NetworkNode, **topology)
    hops, draws, busy = reference
    assert len(hops) == sum(len(f[3]) for f in topology["frames"])
    # Tuples of floats compare bit for bit (no NaNs can arise here).
    assert handoff[0] == hops
    assert handoff[1] == draws
    assert handoff[2] == busy


_link = st.tuples(st.sampled_from([1e8, 1e9, 1e10]),
                  st.floats(1e-6, 1e-3), st.floats(1e-6, 1e-3))
_node = st.builds(NodeSpec,
                  per_message_seconds=st.floats(1e-6, 1e-3),
                  per_byte_seconds=st.floats(1e-12, 1e-9),
                  concurrency=st.integers(1, 4))
_gap = st.one_of(st.just(0.0), st.floats(0.0, 2e-3))
_frame = st.tuples(_gap, st.integers(64, 1 << 20), st.integers(1, 3),
                   st.lists(st.tuples(st.sampled_from(["link", "node"]),
                                      st.integers(0, 2)),
                            min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       links=st.lists(_link, min_size=3, max_size=3),
       nodes=st.lists(_node, min_size=3, max_size=3),
       frames=st.lists(_frame, min_size=1, max_size=40),
       weather=st.lists(st.tuples(st.floats(0.0, 0.05),
                                  st.floats(1.0, 4.0)), max_size=2),
       flaps=st.lists(st.tuples(st.floats(0.0, 0.05), st.integers(0, 2),
                                st.floats(0.0, 0.01)), max_size=2))
def test_random_frames_match_resource_reference(seed, links, nodes, frames,
                                                 weather, flaps):
    arrival = 0.0
    scheduled = []
    for gap, payload, multiplicity, path in frames:
        arrival += gap
        scheduled.append((arrival, payload, multiplicity, path))
    assert_equivalent(seed=seed, links=links, nodes=nodes, frames=scheduled,
                      weather=weather, flaps=flaps)


def test_lockstep_links_draw_shared_jitter_in_release_order():
    """Five saturated links carry identical frames, so every wire finishes
    serializing at the same float instant.  Frames are queued in a
    different link order each round, so only handing each wire to its
    next frame at release (not at arrival) keeps the reference's order
    of draws from the shared jitter stream."""
    link_count, rounds = 5, 6
    frames = []
    for r in range(rounds):
        order = list(range(link_count))
        order = order[r % link_count:] + order[:r % link_count]
        if r % 2:
            order.reverse()
        for index in order:
            frames.append((0.0, 8192, 1, [("link", index), ("node", 0)]))
    topology = dict(seed=7, links=[(1e9, 2e-4, 5e-5)] * link_count,
                    nodes=[NodeSpec(concurrency=2)], frames=frames)
    assert_equivalent(**topology)
    # The links really run in lock step: each instant at which wires
    # finish serializing has one draw per link.
    _, draws, _ = simulate(Link, NetworkNode, **topology)
    instants: dict = {}
    for at, name, _value in draws:
        instants.setdefault(at, set()).add(name)
    assert len(instants) == rounds
    assert all(len(names) == link_count for names in instants.values())
