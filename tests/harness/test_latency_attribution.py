"""Tests for per-hop latency attribution (where each architecture's overhead lives).

The paper motivates the comparison by noting that "each architectural hop
introduces latency and jitter"; the coordinator folds the per-kind hop
totals of every consumed message so a run can attribute its latency to
links, broker hosts, proxies, the load balancer and the ingress.  These
tests check that the attribution reflects each architecture's data path.
"""

from __future__ import annotations

import pytest

from repro.architectures import TestbedConfig
from repro.harness import Experiment, ExperimentConfig

TINY = TestbedConfig(producer_nodes=2, consumer_nodes=2)


def run(architecture):
    config = ExperimentConfig(
        architecture=architecture, workload="Dstream", pattern="work_sharing",
        num_producers=2, num_consumers=2, messages_per_producer=8,
        testbed=TINY)
    result = Experiment(config).run_single(0)
    assert result.completed
    return result.extra["coordinator"]


def test_dts_attribution_has_no_middleware_kinds():
    snapshot = run("DTS")
    kinds = set(snapshot["hop_time_by_kind"])
    assert "link" in kinds
    assert "dsn" in kinds            # broker hosts
    assert "proxy" not in kinds
    assert "lb" not in kinds
    assert "ingress" not in kinds


def test_prs_attribution_includes_proxies():
    snapshot = run("PRS(HAProxy)")
    kinds = set(snapshot["hop_time_by_kind"])
    assert "proxy" in kinds
    assert snapshot["hop_count_by_kind"]["proxy"] > 0
    # Only the publish direction crosses the two proxies: 2 proxy hops per
    # consumed message.
    assert snapshot["hop_count_by_kind"]["proxy"] == 2 * snapshot["consumed"]


def test_mss_attribution_includes_lb_and_ingress_both_ways():
    snapshot = run("MSS")
    kinds = set(snapshot["hop_time_by_kind"])
    assert {"lb", "ingress"} <= kinds
    # Publish and delivery both cross the LB and the ingress.
    assert snapshot["hop_count_by_kind"]["lb"] == 2 * snapshot["consumed"]
    assert snapshot["hop_count_by_kind"]["ingress"] == 2 * snapshot["consumed"]


def test_attribution_fractions_sum_to_one():
    snapshot = run("MSS")
    attribution = snapshot["latency_attribution"]
    assert attribution
    assert sum(attribution.values()) == pytest.approx(1.0)
    assert all(0 <= fraction <= 1 for fraction in attribution.values())


def test_mss_middleware_share_exceeds_dts_share():
    mss = run("MSS")["latency_attribution"]
    dts = run("DTS")["latency_attribution"]
    mss_middleware = mss.get("lb", 0.0) + mss.get("ingress", 0.0)
    dts_middleware = dts.get("lb", 0.0) + dts.get("ingress", 0.0)
    assert mss_middleware > 0.1
    assert dts_middleware == 0.0
