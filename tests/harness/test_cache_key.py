"""``ScenarioPoint.cache_key`` against the ``dataclasses.asdict`` key.

The key hashes the canonical JSON of the point's kind and config.  The
config is canonicalised by walking its dataclass fields without
deep-copying the leaves; the reference below keeps the ``asdict`` key it
replaced.  Every cache on disk is addressed by these keys, so the two must
produce the same string for every config a grid can build.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.amqp import ACK_MODES, AckPolicy
from repro.architectures import ARCHITECTURES
from repro.harness import ExperimentConfig, ScenarioSet
from repro.workloads import WORKLOADS


def reference_key(point) -> str:
    """The cache key as computed through ``dataclasses.asdict``."""
    canonical = json.dumps({"kind": point.kind,
                            "config": dataclasses.asdict(point.config)},
                           sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _axis(values):
    return st.lists(values, min_size=1, max_size=2, unique=True)


# Option values include a dataclass (architectures take an ``ack_policy``
# option), which asdict turns into a dict, and containers it rebuilds.
_ack_policy = st.builds(AckPolicy,
                        consumer_batch=st.integers(min_value=1, max_value=10),
                        prefetch_count=st.sampled_from([0, 10, 100]),
                        mode=st.sampled_from(ACK_MODES))
_options = st.dictionaries(
    st.sampled_from(["num_connections", "use_tls", "proxy_type",
                     "ack_policy"]),
    st.one_of(st.integers(min_value=1, max_value=8), st.booleans(),
              st.text(max_size=4), _ack_policy,
              st.lists(st.integers(min_value=0, max_value=3), max_size=2),
              st.tuples(st.integers(min_value=0, max_value=3))),
    max_size=2)

_axes = st.fixed_dictionaries({}, optional={
    "architecture": _axis(st.sampled_from(sorted(ARCHITECTURES))),
    "consumers": _axis(st.integers(min_value=1, max_value=64)),
    "workload": _axis(st.sampled_from(sorted(WORKLOADS))),
    "seed": _axis(st.integers(min_value=0, max_value=10 ** 6)),
    "testbed.link_bandwidth_bps": _axis(
        st.floats(min_value=1e6, max_value=1e11)),
    "testbed.link_latency_s": _axis(st.floats(min_value=0.0, max_value=0.1)),
    "testbed.dsn_count": _axis(st.integers(min_value=1, max_value=5)),
    "testbed.ack_policy.mode": _axis(st.sampled_from(ACK_MODES)),
    "testbed.ack_policy.prefetch_count": _axis(
        st.sampled_from([0, 10, 100, 1000])),
    "faults.broker_kill_rate": _axis(st.floats(min_value=0.0, max_value=3.0)),
    "faults.link_degradation": _axis(st.floats(min_value=0.0,
                                               max_value=0.99)),
    "faults.slow_consumer_count": _axis(st.integers(min_value=1, max_value=4)),
    "architecture_options": st.lists(_options, min_size=1, max_size=2),
}).filter(bool)


@settings(max_examples=100, deadline=None)
@given(axes=_axes, options=_options)
def test_cache_key_equals_the_asdict_key(axes, options):
    base = ExperimentConfig(architecture="PRS(HAProxy)",
                            architecture_options=options)
    for point in ScenarioSet.product(base, axes):
        assert point.cache_key() == reference_key(point)
        # to_json_dict is the same walk: equal containers, same key order.
        payload = point.config.to_json_dict()
        reference = dataclasses.asdict(point.config)
        assert payload == reference
        assert (json.dumps(payload, default=str)
                == json.dumps(reference, default=str))


def test_to_json_dict_shares_no_container_with_the_config():
    config = ExperimentConfig(architecture_options={"num_connections": 2})
    payload = config.to_json_dict()
    payload["architecture_options"]["num_connections"] = 3
    payload["testbed"]["ack_policy"]["prefetch_count"] = 1
    assert config.architecture_options == {"num_connections": 2}
    assert config.testbed.ack_policy.prefetch_count == 100
    assert ExperimentConfig.from_json_dict(config.to_json_dict()) == config
