"""Unit tests for OpenShift scheduling/NodePorts/ingress, the LB and S3M."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import Endpoint, MessageFactory, Network
from repro.netsim import units
from repro.netsim.tls import DEFAULT_TLS
from repro.cluster import (
    HardwareLoadBalancer,
    IngressController,
    OpenShiftCluster,
    PodSpec,
    ProvisionRequest,
    S3MService,
)
from repro.cluster.specs import DSN_SPEC, INGRESS_SPEC, LOAD_BALANCER_SPEC


def build_olivine(env, n_dsn=3):
    net = Network(env, "olivine")
    workers = [net.add_node(f"dsn{i+1}", DSN_SPEC, role="dsn") for i in range(n_dsn)]
    ingress_host = net.add_node("ingress1", INGRESS_SPEC, role="ingress")
    ingress = IngressController(env, "router", ingress_host, tls=DEFAULT_TLS)
    cluster = OpenShiftCluster(env, "olivine", worker_nodes=workers, ingress=ingress)
    return net, cluster


def rabbit_pod_spec(i):
    return PodSpec(name=f"rabbitmq-{i}", app="rabbitmq", cpus=12,
                   memory_bytes=32 * units.GIB, ports=(5672, 5671),
                   anti_affinity_group="rabbitmq")


# ---------------------------------------------------------------------------
# OpenShift scheduling
# ---------------------------------------------------------------------------

def test_anti_affinity_spreads_rabbitmq_pods():
    env = Environment()
    _, cluster = build_olivine(env)
    pods = [cluster.schedule_pod("abc123", rabbit_pod_spec(i)) for i in range(3)]
    nodes = {pod.node.name for pod in pods}
    assert nodes == {"dsn1", "dsn2", "dsn3"}


def test_anti_affinity_unschedulable_when_nodes_exhausted():
    env = Environment()
    _, cluster = build_olivine(env, n_dsn=2)
    cluster.schedule_pod("abc123", rabbit_pod_spec(0))
    cluster.schedule_pod("abc123", rabbit_pod_spec(1))
    with pytest.raises(RuntimeError, match="unschedulable"):
        cluster.schedule_pod("abc123", rabbit_pod_spec(2))


def test_resource_requests_respected():
    env = Environment()
    _, cluster = build_olivine(env, n_dsn=1)
    # DSN has 64 cores; six 12-cpu pods would need 72.
    for i in range(5):
        cluster.schedule_pod("ns", PodSpec(name=f"p{i}", app="x", cpus=12))
    with pytest.raises(RuntimeError):
        cluster.schedule_pod("ns", PodSpec(name="p5", app="x", cpus=12))


def test_pods_listing_and_describe():
    env = Environment()
    _, cluster = build_olivine(env)
    cluster.schedule_pod("abc123", rabbit_pod_spec(0))
    assert len(cluster.pods("abc123")) == 1
    assert cluster.pods("otherns") == []
    described = cluster.describe()
    assert described["namespaces"]["abc123"] == ["rabbitmq-0"]
    assert described["has_ingress"] is True


def test_cluster_requires_workers():
    env = Environment()
    with pytest.raises(ValueError):
        OpenShiftCluster(env, "empty", worker_nodes=[])


# ---------------------------------------------------------------------------
# NodePort services
# ---------------------------------------------------------------------------

def test_expose_nodeport_maps_ports_in_range():
    env = Environment()
    _, cluster = build_olivine(env)
    pod = cluster.schedule_pod("abc123", rabbit_pod_spec(0))
    svc = cluster.expose_nodeport("rabbitmq", pod, [5672, 5671],
                                  preferred_ports=[30672, 30671])
    assert svc.node_ports == [30671, 30672]
    endpoint = svc.endpoint(5671, scheme="amqps")
    assert endpoint.port == 30671
    assert endpoint.host == pod.node.name
    with pytest.raises(KeyError):
        svc.endpoint(9999)


def test_expose_nodeport_duplicate_service_rejected():
    env = Environment()
    _, cluster = build_olivine(env)
    pod = cluster.schedule_pod("abc123", rabbit_pod_spec(0))
    cluster.expose_nodeport("svc", pod, [5672])
    with pytest.raises(ValueError):
        cluster.expose_nodeport("svc", pod, [5672])


# ---------------------------------------------------------------------------
# Ingress controller and load balancer data path
# ---------------------------------------------------------------------------

def test_ingress_route_and_traverse_records_hop():
    env = Environment()
    net, cluster = build_olivine(env)
    cluster.add_ingress_route("rmq.apps.olivine.ccs.ornl.gov",
                              [Endpoint("dsn1", 5672)])
    backend = cluster.ingress.route_controller.select_backend(
        "rmq.apps.olivine.ccs.ornl.gov")
    assert backend.host == "dsn1"
    message = MessageFactory("p").create(units.kib(16), now=0.0)

    def proc(env):
        yield from cluster.ingress.traverse(message)

    env.process(proc(env))
    env.run()
    assert message.path[0] == "ingress1"
    assert cluster.ingress.monitor.counter("messages").value == 1


def test_ingress_route_without_controller_raises():
    env = Environment()
    net = Network(env)
    workers = [net.add_node("dsn1", DSN_SPEC)]
    cluster = OpenShiftCluster(env, "olivine", worker_nodes=workers)
    with pytest.raises(RuntimeError):
        cluster.add_ingress_route("x", [Endpoint("dsn1", 5672)])


def test_load_balancer_round_robin_and_traverse():
    env = Environment()
    net = Network(env)
    host = net.add_node("lb1", LOAD_BALANCER_SPEC, role="lb")
    lb = HardwareLoadBalancer(env, "front", host)
    lb.add_backend(Endpoint("ingress1", 443))
    lb.add_backend(Endpoint("ingress2", 443))
    picks = [lb.next_backend().host for _ in range(4)]
    assert picks == ["ingress1", "ingress2", "ingress1", "ingress2"]
    assert lb.connections_assigned == 4

    message = MessageFactory("p").create(units.mib(1), now=0.0)

    def proc(env):
        yield from lb.traverse(message)

    env.process(proc(env))
    env.run()
    assert lb.monitor.counter("messages").value == 1
    assert message.path[0] == "lb1"


def test_load_balancer_without_backends_raises():
    env = Environment()
    net = Network(env)
    host = net.add_node("lb1", LOAD_BALANCER_SPEC)
    lb = HardwareLoadBalancer(env, "front", host)
    with pytest.raises(RuntimeError):
        lb.next_backend()


def test_load_balancer_inflight_limit_serializes():
    env = Environment()
    net = Network(env)
    host = net.add_node("lb1", LOAD_BALANCER_SPEC)
    lb = HardwareLoadBalancer(env, "front", host, max_inflight=1)
    finish = []

    def proc(env):
        message = MessageFactory("p").create(units.mib(4), now=env.now)

        def run():
            yield from lb.traverse(message)
            finish.append(env.now)
        return run()

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert finish[1] > finish[0]


# ---------------------------------------------------------------------------
# S3M
# ---------------------------------------------------------------------------

def test_s3m_token_issue_and_validate():
    env = Environment()
    s3m = S3MService(env, allowed_projects={"abc123"})
    token = s3m.issue_token("abc123", lifetime_s=10.0)
    assert s3m.validate(token)
    with pytest.raises(PermissionError):
        s3m.issue_token("unknown-project")


def test_s3m_token_expiry():
    env = Environment()
    s3m = S3MService(env)
    token = s3m.issue_token("abc123", lifetime_s=1.0)

    def proc(env):
        yield env.timeout(2.0)
        return s3m.validate(token)

    assert env.run(until=env.process(proc(env))) is False


def test_s3m_provision_cluster_returns_fqdn_url():
    env = Environment()
    s3m = S3MService(env)
    token = s3m.issue_token("abc123")
    request = ProvisionRequest(nodes=3, cpus=12, ram_gbs=32)

    def proc(env):
        return (yield from s3m.provision_cluster(token, request))

    result = env.run(until=env.process(proc(env)))
    assert result.url.startswith("amqps://rabbitmq.abc123.")
    assert result.nodes == 3
    assert result.details["cpus"] == 12
    # Auth plus 3 nodes of provisioning latency.
    assert env.now == pytest.approx(s3m.auth_latency_s
                                    + 3 * s3m.provision_latency_per_node_s)


def test_s3m_provision_with_expired_token_rejected():
    env = Environment()
    s3m = S3MService(env)
    token = s3m.issue_token("abc123", lifetime_s=0.01)

    def proc(env):
        yield env.timeout(1.0)
        try:
            yield from s3m.provision_cluster(token, ProvisionRequest())
        except PermissionError:
            return "denied"
        return "allowed"

    assert env.run(until=env.process(proc(env))) == "denied"
    assert s3m.monitor.counter("rejected_requests").value == 1
