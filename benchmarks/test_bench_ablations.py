"""Ablation benches for the design choices discussed in §5.2 and §6.

* tunnel proxy type (Stunnel vs HAProxy vs Nginx),
* number of parallel connections to the PRS proxies (1 vs 4),
* the §6 MSS improvement of letting internal consumers bypass the LB,
* upgrading the 1 Gbps interfaces (the §6 "usage of high-speed network"),
* the two-shared-work-queues choice of §5.2,
* the §6 network-layer-forwarding (EJFAT / Banana Pepper) alternative.
"""

from __future__ import annotations

from repro.core import (
    ablation_link_speed,
    ablation_mss_lb_bypass,
    ablation_network_layer_forwarding,
    ablation_proxy_connections,
    ablation_tunnel_type,
    ablation_work_queue_count,
)
from repro.metrics import format_table
from .conftest import curve


def test_bench_ablation_tunnel_type(bench_settings, bench_session):
    sweep = ablation_tunnel_type(
        consumer_counts=(1, 4, 16),
        messages_per_producer=bench_settings["messages"],
        seed=bench_settings["seed"], session=bench_session)
    print()
    print(format_table(sweep.rows(), title="Ablation: PRS tunnel proxy type"))
    haproxy = curve(sweep, "PRS(HAProxy)")
    stunnel = curve(sweep, "PRS(Stunnel)")
    nginx = curve(sweep, "PRS(Nginx)")
    # HAProxy and Nginx behave similarly; Stunnel falls behind at scale.
    assert stunnel[16] < haproxy[16]
    assert 0.5 < nginx[16] / haproxy[16] < 1.5


def test_bench_ablation_proxy_connections(bench_settings, bench_session):
    sweep = ablation_proxy_connections(
        consumer_counts=(1, 4, 16),
        messages_per_producer=bench_settings["messages"],
        seed=bench_settings["seed"], session=bench_session)
    print()
    print(format_table(sweep.rows(), title="Ablation: PRS parallel connections"))
    one = curve(sweep, "PRS(HAProxy)")
    four = curve(sweep, "PRS(HAProxy,4conns)")
    # §5.3: increasing connections to four shows no significant gain.
    for consumers in (1, 4, 16):
        assert abs(four[consumers] - one[consumers]) < 0.25 * one[consumers]


def test_bench_ablation_mss_lb_bypass(bench_settings, bench_session):
    sweep = ablation_mss_lb_bypass(
        consumer_counts=(4, 16, 64),
        messages_per_producer=bench_settings["messages"],
        seed=bench_settings["seed"], session=bench_session)
    print()
    print(format_table(sweep.rows(), title="Ablation: MSS load-balancer bypass"))
    mss = curve(sweep, "MSS")
    bypass = curve(sweep, "MSS(bypass)")
    # §6: letting internal consumers skip the LB/ingress lifts MSS throughput.
    assert bypass[64] > mss[64]
    assert bypass[16] > mss[16]


def test_bench_ablation_link_speed(bench_session):
    rows = ablation_link_speed(consumers=8, messages_per_producer=6,
                               speeds_gbps=(1, 10), session=bench_session)
    print()
    print(format_table(rows, title="Ablation: access/backbone link speed"))
    by_key = {(row["architecture"], row["link_gbps"]):
              row["throughput_msgs_per_s"] for row in rows}
    # Faster interfaces help every architecture (§6 'usage of high-speed network').
    for architecture in ("DTS", "PRS(HAProxy)", "MSS"):
        assert by_key[(architecture, 10)] > by_key[(architecture, 1)]


def test_bench_ablation_work_queue_count(bench_settings, bench_session):
    rows = ablation_work_queue_count(
        consumers=8, queue_counts=(1, 2, 4),
        messages_per_producer=bench_settings["messages"],
        seed=bench_settings["seed"], session=bench_session)
    print()
    print(format_table(rows, title="Ablation: number of shared work queues"))
    by_count = {row["work_queues"]: row["throughput_msgs_per_s"] for row in rows}
    # §5.2 uses two shared queues "to achieve increased throughput": two
    # queues should not be worse than one by any meaningful margin.
    assert by_count[2] > 0.8 * by_count[1]


def test_bench_ablation_network_layer_forwarding(bench_settings,
                                                 bench_session):
    sweep = ablation_network_layer_forwarding(
        consumer_counts=(1, 4, 16),
        messages_per_producer=bench_settings["messages"],
        seed=bench_settings["seed"], session=bench_session)
    print()
    print(format_table(sweep.rows(),
                       title="Ablation: network-layer forwarding (EJFAT-style)"))
    dts = curve(sweep, "DTS")
    nlf = curve(sweep, "NLF")
    prs = curve(sweep, "PRS(HAProxy)")
    # A network-layer forwarder costs less than application-layer proxies but
    # still trails the direct path.
    assert nlf[16] > prs[16]
    assert nlf[16] <= dts[16] * 1.05
