"""Unit tests for the SciStream control plane and tunnel proxies."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import MessageFactory, Network
from repro.netsim import units
from repro.cluster.specs import GATEWAY_SPEC
from repro.scistream import (
    S2CS,
    S2UC,
    HAProxyProxy,
    NginxProxy,
    ProxyError,
    StreamRequest,
    StunnelProxy,
    make_proxy,
    new_uid,
)


def gateway(env, name="gn1"):
    net = Network(env)
    return net.add_node(name, GATEWAY_SPEC, role="gateway")


def msg(payload=units.kib(16)):
    return MessageFactory("prod").create(payload, now=0.0)


# ---------------------------------------------------------------------------
# Control protocol objects
# ---------------------------------------------------------------------------

def test_stream_request_validation():
    with pytest.raises(ValueError):
        StreamRequest(direction="sideways", server_cert="c", remote_ip="1.2.3.4",
                      s2cs_address="gn:30600", receiver_ports=(5672,))
    with pytest.raises(ValueError):
        StreamRequest(direction="inbound", server_cert="c", remote_ip="1.2.3.4",
                      s2cs_address="gn:30600", receiver_ports=())
    with pytest.raises(ValueError):
        StreamRequest(direction="outbound", server_cert="c", remote_ip="1.2.3.4",
                      s2cs_address="gn:30600", receiver_ports=(5672,))  # no UID
    with pytest.raises(ValueError):
        StreamRequest(direction="inbound", server_cert="c", remote_ip="1.2.3.4",
                      s2cs_address="gn:30600", receiver_ports=(5672,),
                      num_connections=0)


def test_new_uid_unique():
    uids = {new_uid(seed, issuer, n) for seed in (1, 2)
            for issuer in ("prod-s2cs", "cons-s2cs") for n in range(3)}
    assert len(uids) == 12
    assert all(len(uid) == 16 and int(uid, 16) >= 0 for uid in uids)


def test_new_uid_is_a_function_of_seed_and_issuer():
    assert new_uid(7, "cons-s2cs", 0) == new_uid(7, "cons-s2cs", 0)
    assert new_uid(7, "cons-s2cs", 0) != new_uid(8, "cons-s2cs", 0)


# ---------------------------------------------------------------------------
# Proxies
# ---------------------------------------------------------------------------

def test_make_proxy_factory_and_unknown_type():
    env = Environment()
    gn = gateway(env)
    assert isinstance(make_proxy("stunnel", env, "p", gn), StunnelProxy)
    assert isinstance(make_proxy("HAProxy", env, "p2", gn), HAProxyProxy)
    assert isinstance(make_proxy("nginx", env, "p3", gn), NginxProxy)
    with pytest.raises(ValueError):
        make_proxy("socat", env, "p4", gn)


def test_stunnel_connection_cap_is_16():
    env = Environment()
    proxy = StunnelProxy(env, "st", gateway(env))
    proxy.register_connections(16)
    with pytest.raises(ProxyError):
        proxy.register_connections(1)
    assert proxy.registered_connections == 16


def test_haproxy_has_no_connection_cap():
    env = Environment()
    proxy = HAProxyProxy(env, "ha", gateway(env))
    proxy.register_connections(64)
    assert proxy.registered_connections == 64


def test_stunnel_single_worker_serializes_forwarding():
    env = Environment()
    proxy = StunnelProxy(env, "st", gateway(env))
    finishes = []

    def forward(env, proxy):
        message = msg(units.mib(1))

        def run():
            yield from proxy.traverse(message)
            finishes.append(env.now)
        return run()

    for _ in range(3):
        env.process(forward(env, proxy))
    env.run()
    assert finishes[0] < finishes[1] < finishes[2]


def test_haproxy_parallel_forwarding_faster_than_stunnel():
    def total_time(proxy_cls):
        env = Environment()
        proxy = proxy_cls(env, "p", gateway(env))

        def forward(env, proxy):
            message = msg(units.kib(64))

            def run():
                yield from proxy.traverse(message)
            return run()

        for _ in range(8):
            env.process(forward(env, proxy))
        env.run()
        return env.now

    assert total_time(HAProxyProxy) < total_time(StunnelProxy)


def test_proxy_traverse_records_proxy_hop_and_counters():
    env = Environment()
    proxy = HAProxyProxy(env, "ha", gateway(env))
    message = msg()

    def proc(env):
        yield from proxy.traverse(message)

    env.process(proc(env))
    env.run()
    assert "proxy" in message.hop_totals
    assert proxy.monitor.counter("messages").value == 1


def test_haproxy_num_connections_increases_concurrency_slightly():
    env = Environment()
    gn = gateway(env)
    one = HAProxyProxy(env, "ha1", gn, num_connections=1)
    four = HAProxyProxy(env, "ha4", gn, num_connections=4)
    assert four.effective_concurrency() > one.effective_concurrency()
    assert four.effective_concurrency() <= one.effective_concurrency() + 4


def test_proxy_invalid_arguments():
    env = Environment()
    gn = gateway(env)
    with pytest.raises(ValueError):
        HAProxyProxy(env, "p", gn, num_connections=0)
    proxy = HAProxyProxy(env, "p", gn)
    with pytest.raises(ValueError):
        proxy.register_connections(-1)


# ---------------------------------------------------------------------------
# S2CS / S2UC session establishment
# ---------------------------------------------------------------------------

def build_control_plane(env):
    net = Network(env)
    prod_gw = net.add_node("gn-prod", GATEWAY_SPEC, role="gateway")
    cons_gw = net.add_node("gn-cons", GATEWAY_SPEC, role="gateway")
    prod_s2cs = S2CS(env, "prod-s2cs", prod_gw, side="producer",
                     server_cert="prod-s2cs.crt")
    cons_s2cs = S2CS(env, "cons-s2cs", cons_gw, side="consumer",
                     server_cert="cons-s2cs.crt")
    return prod_s2cs, cons_s2cs


def test_s2cs_rejects_wrong_certificate():
    env = Environment()
    prod_s2cs, _ = build_control_plane(env)
    bad = StreamRequest(direction="outbound", server_cert="wrong.crt",
                        remote_ip="198.51.100.0", s2cs_address="gn-prod:30500",
                        receiver_ports=(5100,), uid="abc")

    def proc(env):
        try:
            yield from prod_s2cs.handle_request(bad)
        except PermissionError:
            return "denied"
        return "allowed"

    assert env.run(until=env.process(proc(env))) == "denied"


def test_s2cs_allocates_ports_in_documented_range():
    env = Environment()
    prod_s2cs, _ = build_control_plane(env)
    request = StreamRequest(direction="outbound", server_cert="prod-s2cs.crt",
                            remote_ip="198.51.100.0", s2cs_address="gn-prod:30500",
                            receiver_ports=(5672,), num_connections=2, uid="abc")

    def proc(env):
        return (yield from prod_s2cs.handle_request(request))

    reservation = env.run(until=env.process(proc(env)))
    assert all(5100 <= p <= 5110 for p in reservation.listener_ports)
    assert len(reservation.listener_ports) == 2
    assert reservation.side == "producer"
    assert prod_s2cs.data_server(reservation.uid).primary_port == reservation.listener_ports[0]


def test_s2cs_port_exhaustion():
    env = Environment()
    prod_s2cs, _ = build_control_plane(env)

    def proc(env):
        for i in range(3):
            request = StreamRequest(direction="outbound", server_cert="prod-s2cs.crt",
                                    remote_ip="198.51.100.0",
                                    s2cs_address="gn-prod:30500",
                                    receiver_ports=(5672,), num_connections=5,
                                    uid=f"uid{i}")
            yield from prod_s2cs.handle_request(request)

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="port range"):
        env.run()


def test_s2uc_establishes_full_session():
    env = Environment()
    prod_s2cs, cons_s2cs = build_control_plane(env)
    s2uc = S2UC(env)

    def proc(env):
        return (yield from s2uc.establish_session(
            producer_s2cs=prod_s2cs, consumer_s2cs=cons_s2cs,
            remote_ip="10.1.1.100", target_ports=(5672,),
            num_connections=1, proxy_type="haproxy"))

    session = env.run(until=env.process(proc(env)))
    assert session.uid
    assert session.producer_proxy.side == "producer"
    assert session.consumer_proxy.side == "consumer"
    assert session.producer_proxy.uid == session.consumer_proxy.uid
    described = session.describe()
    assert described["producer_gateway"] == "gn-prod"
    assert described["consumer_gateway"] == "gn-cons"
    assert s2uc.sessions[session.uid] is session


def test_s2cs_issues_distinct_seeded_uids():
    def issue(seed):
        env = Environment()
        _, cons_s2cs = build_control_plane(env)
        cons_s2cs.uid_seed = seed
        request = StreamRequest(direction="inbound",
                                server_cert="cons-s2cs.crt",
                                remote_ip="10.1.1.100",
                                s2cs_address="gn-cons:30600",
                                receiver_ports=(5672,))

        def proc(env):
            first = yield from cons_s2cs.handle_request(request)
            second = yield from cons_s2cs.handle_request(request)
            return first.uid, second.uid

        return env.run(until=env.process(proc(env)))

    first, second = issue(3)
    assert first != second
    assert (first, second) == issue(3)
    assert first == new_uid(3, "cons-s2cs", 0)
    assert issue(4) != (first, second)


def test_s2uc_stunnel_session_respects_connection_cap():
    env = Environment()
    prod_s2cs, cons_s2cs = build_control_plane(env)
    s2uc = S2UC(env)

    def proc(env):
        try:
            yield from s2uc.establish_session(
                producer_s2cs=prod_s2cs, consumer_s2cs=cons_s2cs,
                remote_ip="10.1.1.100", target_ports=(5672,),
                num_connections=5, proxy_type="stunnel")
        except Exception as exc:  # port range only allows 11 ports anyway
            return type(exc).__name__
        return "ok"

    # 5 connections is fine for stunnel (cap is 16); session should establish.
    assert env.run(until=env.process(proc(env))) == "ok"


def test_s2uc_release_session():
    env = Environment()
    prod_s2cs, cons_s2cs = build_control_plane(env)
    s2uc = S2UC(env)

    def proc(env):
        return (yield from s2uc.establish_session(
            producer_s2cs=prod_s2cs, consumer_s2cs=cons_s2cs,
            remote_ip="10.1.1.100", target_ports=(5672,)))

    session = env.run(until=env.process(proc(env)))
    s2uc.release_session(session.uid)
    assert session.uid not in s2uc.sessions
    with pytest.raises(KeyError):
        prod_s2cs.data_server(session.uid)
