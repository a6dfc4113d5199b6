"""Exact work counts of nine fixed scenarios.

Each case runs one small scenario serially, asserts its check value (the
simulated clock, messages moved, deliveries made or messages consumed)
and pins the exact number of events it scheduled: ``Environment._eid``
summed over every :class:`~repro.simkit.Environment` the scenario built.
The count is the same on any host and under any ``PYTHONHASHSEED``, so a
case fails on any change to the work the simulator does and never on host
load.  Wall time is measured by ``bench/run.py`` and ``bench/ab.py``.

The scenarios cover the kernel (timeout chains and the zero-delay lane),
one contended link, the broker publish/dispatch loop, one experiment
point, a four-point serial sweep, 100 discrete clients against the
population axis at K=1 and K=2500 (4 + 10,000 logical clients), and a
broker-kill chaos sweep.

A change that alters the work done re-records these counts in its own
commit, as for result digests, and that commit names each moved count
and why it moved.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.amqp import Broker, BrokerCluster
from repro.architectures import TestbedConfig
from repro.faults import FaultPlan
from repro.harness import Experiment, ExperimentConfig, ScenarioSet, Session
from repro.netsim import MessageFactory, Network, units
from repro.simkit import Environment

#: Events scheduled per scenario, summed over its environments.
EVENTS = {
    "simkit_event_loop": 5_020,
    "simkit_zero_delay": 5_020,
    "link_transfer": 2_020,
    "broker_publish_consume": 2_504,
    "experiment_point": 2_681,
    "sweep_end_to_end": 2_290,
    "discrete_clients_point": 67_081,
    "population_sweep": 5_362,
    "chaos_sweep": 5_452,
}


def _point_config(**overrides):
    """DTS, Dstream work sharing, 4 producers x 4 consumers x 25 messages."""
    return replace(ExperimentConfig(
        architecture="DTS", workload="Dstream", pattern="work_sharing",
        num_producers=4, num_consumers=4, messages_per_producer=25,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4)),
        **overrides)


def _run_serially(scenarios):
    with Session(backend="serial") as session:
        outcomes = session.run(scenarios)
    assert all(outcome.result.feasible for outcome in outcomes)
    return sum(outcome.result.consumed for outcome in outcomes)


def simkit_event_loop(environments):
    """Ten processes, each chaining 500 heap timeouts of 1 ms."""
    env = Environment()
    environments.append(env)

    def ticker(env):
        for _ in range(500):
            yield env.timeout(0.001)

    for _ in range(10):
        env.process(ticker(env))
    env.run()
    assert env.now == pytest.approx(0.5, abs=1e-9)


def simkit_zero_delay(environments):
    """Ten processes, each chaining 500 zero-delay timeouts."""
    env = Environment()
    environments.append(env)

    def spinner(env):
        for _ in range(500):
            yield env.timeout(0)

    for _ in range(10):
        env.process(spinner(env))
    env.run()
    assert env.now == 0


def link_transfer(environments):
    """Ten senders push 100 messages of 16 KiB each over one 1 Gbps link."""
    env = Environment()
    environments.append(env)
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    link, _ = net.connect("a", "b", bandwidth_bps=units.gbps(1))
    factory = MessageFactory("p")

    def sender(env):
        for _ in range(100):
            yield from link.traverse(factory.create(units.kib(16),
                                                    now=env.now))

    for _ in range(10):
        env.process(sender(env))
    env.run()
    assert link.monitor.counter("messages").value == 1000


def broker_publish_consume(environments):
    """500 publishes through a one-broker cluster to one consumer, with no
    network stages."""
    env = Environment()
    environments.append(env)
    net = Network(env)
    net.add_node("dsn1")
    broker = Broker(env, "rmqs1", net.get_node("dsn1"))
    cluster = BrokerCluster(env, "c", [broker], net)
    queue = cluster.declare_queue("work")
    received = []

    def deliver(message):
        yield env.timeout(0)
        received.append(message)

    queue.subscribe("c1", deliver, prefetch=0)
    factory = MessageFactory("p")

    def producer(env):
        for _ in range(500):
            message = factory.create(units.kib(16), now=env.now,
                                     routing_key="work")
            yield from cluster.publish(broker, message, "", "work")

    env.process(producer(env))
    env.run()
    assert len(received) == 500


def experiment_point(environments):
    """One full experiment point."""
    result = Experiment(_point_config()).run_single(0)
    assert result.completed
    assert result.consumed == 100


def sweep_end_to_end(environments):
    """DTS and MSS at 1 and 2 consumers, 2 producers x 10 messages."""
    base = _point_config(num_producers=2, num_consumers=2,
                         messages_per_producer=10)
    scenarios = ScenarioSet.product(base, {"architecture": ["DTS", "MSS"],
                                           "consumers": [1, 2]})
    assert _run_serially(scenarios) == 60


def discrete_clients_point(environments):
    """The point with 100 discrete producers: the foil for the population
    axis, each client its own producer process."""
    result = Experiment(_point_config(num_producers=100)).run_single(0)
    assert result.completed
    assert result.consumed == 2_500


def population_sweep(environments):
    """The point at population 1 and 2500: 4 aggregate producers standing
    for 4 and 10,000 logical clients."""
    scenarios = ScenarioSet.product(_point_config(),
                                    {"population": [1, 2500]})
    # 4 producers x 25 messages x (1 + 2500) logical clients.
    assert _run_serially(scenarios) == 250_100


def chaos_sweep(environments):
    """The point at broker-kill rates 0 and 1: every message is still
    delivered through the kills."""
    scenarios = ScenarioSet.product(_point_config(faults=FaultPlan()),
                                    {"faults.broker_kill_rate": [0.0, 1.0]})
    assert _run_serially(scenarios) == 200


SCENARIOS = {scenario.__name__: scenario for scenario in (
    simkit_event_loop, simkit_zero_delay, link_transfer,
    broker_publish_consume, experiment_point, sweep_end_to_end,
    discrete_clients_point, population_sweep, chaos_sweep)}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_work_count(name, environments):
    SCENARIOS[name](environments)
    assert environments
    assert sum(env._eid for env in environments) == EVENTS[name]
