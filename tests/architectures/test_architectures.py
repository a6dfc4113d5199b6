"""Unit and integration tests for the DTS / PRS / MSS / NLF architectures."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.architectures import (
    ARCHITECTURES,
    DeploymentError,
    DTSArchitecture,
    MSSArchitecture,
    NLFArchitecture,
    PRSArchitecture,
    Testbed,
    TestbedConfig,
    make_architecture,
)
from repro.netsim import MessageFactory
from repro.netsim import units


def make_testbed(env, **overrides):
    params = dict(producer_nodes=2, consumer_nodes=2, dsn_count=3)
    params.update(overrides)
    return Testbed(env, TestbedConfig(**params))


def deploy(env, architecture):
    env.run(until=env.process(architecture.deploy()))
    return architecture


def run_one_message(env, testbed, architecture, payload=units.kib(16)):
    """Publish one message through the architecture and consume it."""
    testbed.declare_work_queue("work")
    producer = architecture.attach_producer(testbed.producer_host(0), "prod-0")
    consumer = architecture.attach_consumer(testbed.consumer_host(0), "cons-0")
    consumer.subscriber.subscribe("work")
    factory = MessageFactory("prod-0")
    box = []

    def setup(env):
        # Pre-establish connections (the harness does this before measuring)
        # so message latency reflects the steady-state data path, not TCP/TLS
        # handshakes.
        yield from producer.publisher.connection.establish()
        yield from consumer.subscriber.connection.establish()

    env.run(until=env.process(setup(env)))

    def produce(env):
        message = factory.create(payload, now=env.now, routing_key="work")
        ok = yield from producer.publisher.publish(message)
        assert ok

    def consume(env):
        message = yield consumer.subscriber.get()
        box.append(message)

    env.process(produce(env))
    env.process(consume(env))
    env.run()
    assert len(box) == 1
    return box[0]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_contains_paper_labels():
    for label in ["DTS", "PRS(Stunnel)", "PRS(HAProxy)", "PRS(HAProxy,4conns)", "MSS"]:
        assert label in ARCHITECTURES


def test_make_architecture_unknown_label():
    env = Environment()
    testbed = make_testbed(env)
    with pytest.raises(ValueError):
        make_architecture("FTP", testbed)


def test_make_architecture_labels_match():
    env = Environment()
    testbed = make_testbed(env)
    arch = make_architecture("PRS(HAProxy,4conns)", testbed)
    assert isinstance(arch, PRSArchitecture)
    assert arch.num_connections == 4
    assert arch.label == "PRS(HAProxy,4conns)"


# ---------------------------------------------------------------------------
# Deployment prerequisites
# ---------------------------------------------------------------------------

def test_attach_before_deploy_raises():
    env = Environment()
    testbed = make_testbed(env)
    arch = DTSArchitecture(testbed)
    with pytest.raises(DeploymentError):
        arch.attach_producer(testbed.producer_host(0), "p0")


def test_dts_deploy_opens_nodeports_and_firewall_rules():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, DTSArchitecture(testbed))
    report = arch.deployment_report()
    assert report.nodeports_exposed == 6          # 2 ports x 3 pods
    assert report.firewall_rules == 6
    assert report.multi_user_scalability == 1
    assert testbed.hpc_facility.permits_ingress("198.51.100.9", "dsn1", 30672)


def test_prs_deploy_establishes_scistream_session():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, PRSArchitecture(testbed, proxy_type="haproxy"))
    assert arch.session is not None
    assert arch.producer_proxy.gateway_name == "gw-prod"
    assert arch.consumer_proxy.gateway_name == "gw-cons"
    report = arch.deployment_report()
    assert report.firewall_rules == 2
    assert report.multi_user_scalability == 3


def test_mss_deploy_provisions_via_s3m_and_registers_route():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, MSSArchitecture(testbed))
    assert arch.hostname is not None
    assert arch.hostname in testbed.dns.known_names()
    backends = testbed.ingress.route_controller.backends(arch.hostname)
    assert {b.host for b in backends} == {"dsn1", "dsn2", "dsn3"}
    report = arch.deployment_report()
    assert report.firewall_rules == 0
    assert report.multi_user_scalability == 5
    # Deployment takes auth + 3 nodes of provisioning time.
    assert env.now > 6.0


def test_nlf_deploy_adds_router_node():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, NLFArchitecture(testbed))
    assert "nlf-router" in testbed.network.nodes
    assert testbed.hpc_facility.nat.mapping_count == 3


# ---------------------------------------------------------------------------
# Hop counts: DTS < PRS/NLF < MSS
# ---------------------------------------------------------------------------

def test_hop_count_ordering_matches_paper():
    env = Environment()
    testbed = make_testbed(env)
    dts = deploy(env, DTSArchitecture(testbed))
    prs = deploy(env, PRSArchitecture(testbed))
    mss = deploy(env, MSSArchitecture(testbed))
    dts_hops = dts.data_path_hop_count()
    prs_hops = prs.data_path_hop_count()
    mss_hops = mss.data_path_hop_count()
    assert dts_hops < prs_hops
    assert dts_hops < mss_hops
    assert dts_hops == 4    # producer->core->dsn + dsn->core->consumer
    assert prs_hops == 7    # publish path gains 3 extra link hops
    assert mss_hops == 10   # both directions cross LB + ingress


def test_mss_bypass_reduces_consumer_hops():
    env = Environment()
    testbed = make_testbed(env)
    mss = deploy(env, MSSArchitecture(testbed))
    bypass = deploy(env, MSSArchitecture(testbed, bypass_lb_for_internal=True))
    assert bypass.data_path_hop_count() < mss.data_path_hop_count()
    assert bypass.label == "MSS(bypass)"


# ---------------------------------------------------------------------------
# End-to-end single message through each architecture
# ---------------------------------------------------------------------------

def test_dts_end_to_end_message_path():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, DTSArchitecture(testbed))
    message = run_one_message(env, testbed, arch)
    elements = message.path
    assert "olcf-core" in elements
    assert any(e.startswith("dsn") for e in elements)
    assert message.latency > 0


def test_prs_end_to_end_goes_through_both_proxies():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, PRSArchitecture(testbed, proxy_type="haproxy"))
    message = run_one_message(env, testbed, arch)
    assert message.hop_totals["proxy"][0] == 2
    # Delivery to the consumer is direct: the last hops contain no proxy.
    elements = message.path
    assert elements[-1].startswith("andes")


def test_mss_end_to_end_crosses_lb_and_ingress_twice():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, MSSArchitecture(testbed))
    message = run_one_message(env, testbed, arch)
    elements = message.path
    assert elements.count("lb1") == 2
    assert elements.count("ingress1") == 2


def test_single_message_latency_ordering_dts_fastest():
    def latency_for(label):
        env = Environment()
        testbed = make_testbed(env)
        arch = deploy(env, make_architecture(label, testbed))
        return run_one_message(env, testbed, arch).latency

    dts = latency_for("DTS")
    prs = latency_for("PRS(HAProxy)")
    mss = latency_for("MSS")
    assert dts < prs
    assert dts < mss
    assert mss > prs


# ---------------------------------------------------------------------------
# PRS tunnel constraints
# ---------------------------------------------------------------------------

def test_prs_stunnel_connection_cap_limits_producers():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, PRSArchitecture(testbed, proxy_type="stunnel"))
    # Stunnel supports 16 simultaneous connections: the 17th producer fails,
    # which is why the paper has no 32/64-consumer Stunnel data points.
    for i in range(16):
        arch.attach_producer(testbed.producer_host(i), f"p{i}")
    with pytest.raises(DeploymentError):
        arch.attach_producer(testbed.producer_host(16), "p16")


def test_prs_haproxy_many_producers_allowed():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, PRSArchitecture(testbed, proxy_type="haproxy"))
    for i in range(32):
        arch.attach_producer(testbed.producer_host(i), f"p{i}")
    assert len(arch.endpoints) == 32


def test_prs_invalid_num_connections():
    env = Environment()
    testbed = make_testbed(env)
    with pytest.raises(ValueError):
        PRSArchitecture(testbed, num_connections=0)


# ---------------------------------------------------------------------------
# Deployment reports
# ---------------------------------------------------------------------------

def test_deployment_reports_burden_ordering():
    env = Environment()
    testbed = make_testbed(env)
    dts = deploy(env, DTSArchitecture(testbed))
    prs = deploy(env, PRSArchitecture(testbed))
    mss = deploy(env, MSSArchitecture(testbed))
    dts_burden = dts.deployment_report().operational_burden()
    prs_burden = prs.deployment_report().operational_burden()
    mss_burden = mss.deployment_report().operational_burden()
    assert dts_burden > prs_burden > mss_burden


def test_deployment_report_row_has_all_axes():
    env = Environment()
    testbed = make_testbed(env)
    arch = deploy(env, DTSArchitecture(testbed))
    row = arch.deployment_report().as_row()
    from repro.architectures import FEASIBILITY_AXES
    for axis in FEASIBILITY_AXES:
        assert axis in row
