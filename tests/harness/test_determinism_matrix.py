"""Cross-backend determinism matrix.

Every ScenarioSet constructor (grid, consumer_sweep, deployments), run under
SerialBackend, ProcessPoolBackend(jobs=2) and ThreadPoolBackend(jobs=2),
must produce byte-identical JSON payloads: each simulation derives all of
its randomness from the point's config, never from process, thread or
scheduling state.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.architectures import TestbedConfig
from repro.harness import (
    ExperimentConfig,
    ProcessPoolBackend,
    ScenarioSet,
    SerialBackend,
    Session,
    ThreadPoolBackend,
    run_scenarios,
)


def tiny_config(**overrides):
    params = dict(
        architecture="DTS",
        workload="Dstream",
        pattern="work_sharing",
        num_producers=2,
        num_consumers=2,
        messages_per_producer=4,
        max_sim_time_s=120.0,
        testbed=TestbedConfig(producer_nodes=4, consumer_nodes=4),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _scenario_sets():
    base = tiny_config()
    return {
        "grid": ScenarioSet.grid(
            base, architectures=["DTS", "MSS"],
            workloads=["Dstream", "Lstream"], seeds=[1, 2]),
        "consumer_sweep": ScenarioSet.consumer_sweep(
            base, architectures=["DTS", "PRS(HAProxy)"],
            consumer_counts=[1, 2, 4]),
        "deployments": ScenarioSet.deployments(
            ["DTS", "PRS(HAProxy)", "MSS"], base),
    }


def _payloads(outcomes) -> list[str]:
    payloads = []
    for outcome in outcomes:
        if outcome.point.kind == "deployment":
            payloads.append(json.dumps(outcome.result.as_row(),
                                       sort_keys=True, default=str))
        else:
            payloads.append(json.dumps(outcome.result.to_json_dict(),
                                       sort_keys=True))
    return payloads


#: sha256 over the newline-joined serial JSON payloads of each scenario
#: set, recorded with the *pre-fast-kernel* engine (PR 4 tree).  The
#: fast-kernel optimizations (single-callback events, zero-delay lanes,
#: timeout freelist, array('d') metrics buffers, batched jitter draws)
#: must reproduce these bytes exactly.  Regenerate only for a deliberate
#: semantic change:
#:
#:     payloads = _payloads(run_scenarios(scenarios, backend=SerialBackend()))
#:     hashlib.sha256("\n".join(payloads).encode()).hexdigest()
GOLDEN_DIGESTS = {
    "grid":
        "78ed798f48f612330d154c5086c3729f2d8c06c90d631ccbabeb1168c55285c6",
    "consumer_sweep":
        "7c229b6c767bf3ecbd1467953e6ceff6bd4af5b8f1cca97b5a14faad4a530c36",
    "deployments":
        "07f6c84df873bad3003304ad726514e1e11a28bb7891212ee5b345b3e606fff2",
}


@pytest.mark.parametrize("parallel_backend", [
    lambda: ProcessPoolBackend(2),
    lambda: ThreadPoolBackend(2),
], ids=["process", "thread"])
@pytest.mark.parametrize("constructor", ["grid", "consumer_sweep",
                                         "deployments"])
def test_parallel_payloads_byte_identical_to_serial(constructor,
                                                    parallel_backend):
    scenarios = _scenario_sets()[constructor]
    serial = run_scenarios(scenarios, backend=SerialBackend())
    parallel = run_scenarios(scenarios, backend=parallel_backend())
    assert _payloads(serial) == _payloads(parallel)
    # Ordering survives the pool's out-of-order completion too.
    assert ([o.point.cache_key() for o in serial]
            == [o.point.cache_key() for o in parallel])


@pytest.mark.parametrize("constructor", ["grid", "consumer_sweep",
                                         "deployments"])
def test_fast_kernel_payloads_match_pre_optimization_golden(constructor):
    """The optimized kernel reproduces the pre-optimization results
    byte-for-byte (see GOLDEN_DIGESTS for the recording recipe)."""
    scenarios = _scenario_sets()[constructor]
    payloads = _payloads(run_scenarios(scenarios, backend=SerialBackend()))
    digest = hashlib.sha256("\n".join(payloads).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[constructor]


#: sha256 of the JSON payload of Figure 4's Lstream/DTS/64-consumer point
#: (seed 1, paper scale, about 0.4 s).  Five producer links run in lock
#: step there: identical frames finish serializing at the same float
#: instant and then draw the shared link-jitter stream in the order the
#: links hand their wires to the next frame, so this point pins the
#: grant order of the hop servers, which the small scenario sets above
#: do not exercise.
FIG4_LSTREAM_DTS_64_DIGEST = (
    "712bb581735831a7a8a1b35d9cb39fb34a5bcb1b6a11a79e05779207bb33ea8c")


def test_figure4_lockstep_point_matches_golden():
    from repro.core.figures import figure4

    data = figure4(workloads=("Lstream",), architectures=("DTS",),
                   consumer_counts=(64,))
    result = data.sweeps["Lstream"].get("DTS", 64)
    payload = json.dumps(result.to_json_dict(), sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == FIG4_LSTREAM_DTS_64_DIGEST


def test_stunnel_infeasible_reason_is_identical_across_runs_and_backends():
    """The PRS(Stunnel)@32 reason quotes the producer proxy's name, which
    is built from the SciStream session UID: the UID derives from the
    point's seed, so the text is the same on every run and backend."""
    base = tiny_config(architecture="PRS(Stunnel)", num_producers=32,
                       num_consumers=32,
                       testbed=TestbedConfig(producer_nodes=16,
                                             consumer_nodes=16))
    scenarios = ScenarioSet.product(base, {"seed": [1, 2]})

    def reasons(**backend):
        with Session(**backend) as session:
            return [outcome.result.infeasible_reason
                    for outcome in session.run(scenarios)]

    serial = reasons(backend="serial")
    assert all("s2ds-producer-" in reason for reason in serial)
    assert serial[0] != serial[1]  # the UID follows the seed
    assert reasons(backend="serial") == serial
    assert reasons(backend="process", jobs=2) == serial
