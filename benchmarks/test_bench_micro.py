"""Micro-benchmarks of the simulation substrate itself.

These measure the cost of the building blocks (event loop, link transfers,
broker publishes, end-to-end experiment runs) so regressions in simulator
performance are visible independently of the figure benches.
"""

from __future__ import annotations

from repro.amqp import Broker, BrokerCluster
from repro.architectures import TestbedConfig
from repro.harness import Experiment, ExperimentConfig
from repro.netsim import MessageFactory, Network
from repro.netsim import units
from repro.simkit import Environment


def test_bench_simkit_event_loop(benchmark):
    """Throughput of the bare discrete-event loop (timeout chains)."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(0.001)

        for _ in range(10):
            env.process(ticker(env, 500))
        env.run()
        return env.now

    result = benchmark(run)
    assert result > 0


def test_bench_link_transfer(benchmark):
    """Cost of pushing 1000 messages through a contended 1 Gbps link."""

    def run():
        env = Environment()
        net = Network(env)
        net.add_node("a")
        net.add_node("b")
        link, _ = net.connect("a", "b", bandwidth_bps=units.gbps(1))
        factory = MessageFactory("p")

        def sender(env, link):
            for _ in range(100):
                message = factory.create(units.kib(16), now=env.now)
                yield from link.traverse(message)

        for _ in range(10):
            env.process(sender(env, link))
        env.run()
        return link.monitor.counter("messages").value

    assert benchmark(run) == 1000


def test_bench_broker_publish_consume(benchmark):
    """Broker-cluster publish/dispatch loop without any network stages."""

    def run():
        env = Environment()
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
        return len(received)

    assert benchmark(run) == 500


def test_bench_single_experiment_point(benchmark):
    """Wall-clock cost of one full experiment point (DTS, 4x4, Dstream)."""

    def run():
        config = ExperimentConfig(
            architecture="DTS", workload="Dstream", pattern="work_sharing",
            num_producers=4, num_consumers=4, messages_per_producer=25,
            testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4))
        return Experiment(config).run_single(0)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result.completed
    assert result.consumed == 100


def test_bench_scenario_runner_serial(benchmark):
    """Overhead of the unified scenario runner (serial backend, 4 points)."""
    from repro.harness import ScenarioSet, run_scenarios

    def run():
        base = ExperimentConfig(
            architecture="DTS", workload="Dstream", pattern="work_sharing",
            num_producers=2, num_consumers=2, messages_per_producer=10,
            testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4))
        scenarios = ScenarioSet.product(base, {
            "architecture": ["DTS", "MSS"], "consumers": [1, 2]})
        return run_scenarios(scenarios)

    outcomes = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert len(outcomes) == 4
    assert all(outcome.result.feasible for outcome in outcomes)


def test_bench_scenario_runner_process_pool(benchmark):
    """The same 4 points fanned out over a 2-worker process pool."""
    from repro.harness import (
        ProcessPoolBackend,
        ScenarioSet,
        Session,
        run_scenarios,
    )

    def run():
        base = ExperimentConfig(
            architecture="DTS", workload="Dstream", pattern="work_sharing",
            num_producers=2, num_consumers=2, messages_per_producer=10,
            testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4))
        scenarios = ScenarioSet.product(base, {
            "architecture": ["DTS", "MSS"], "consumers": [1, 2]})
        pool = ProcessPoolBackend(2, chunksize=1)
        return run_scenarios(scenarios, session=Session(backend=pool))

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert len(outcomes) == 4
    assert all(outcome.result.feasible for outcome in outcomes)
