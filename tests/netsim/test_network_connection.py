"""Unit tests for topology routing and the connection data path."""

from __future__ import annotations

import pytest

from repro.simkit import Environment
from repro.netsim import (
    Connection,
    MessageFactory,
    Network,
    SecuredNode,
)
from repro.netsim.tls import DEFAULT_TLS, NULL_TLS
from repro.netsim import units


def small_net(env):
    net = Network(env, "t")
    for name in ["andes1", "dsn1", "dsn2", "lb"]:
        net.add_node(name)
    net.connect("andes1", "dsn1", bandwidth_bps=units.gbps(1))
    net.connect("dsn1", "dsn2", bandwidth_bps=units.gbps(1))
    net.connect("andes1", "lb", bandwidth_bps=units.gbps(1))
    net.connect("lb", "dsn2", bandwidth_bps=units.gbps(1))
    return net


# ---------------------------------------------------------------------------
# Network / Route
# ---------------------------------------------------------------------------

def test_add_node_and_duplicate_rejected():
    env = Environment()
    net = Network(env)
    net.add_node("a")
    with pytest.raises(ValueError):
        net.add_node("a")


def test_add_link_requires_existing_nodes():
    env = Environment()
    net = Network(env)
    net.add_node("a")
    with pytest.raises(KeyError):
        net.add_link("a", "missing", bandwidth_bps=1e9)


def test_duplicate_link_rejected():
    env = Environment()
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", bandwidth_bps=1e9)
    with pytest.raises(ValueError):
        net.add_link("a", "b", bandwidth_bps=1e9)


def test_connect_creates_both_directions():
    env = Environment()
    net = small_net(env)
    assert net.has_link("andes1", "dsn1")
    assert net.has_link("dsn1", "andes1")


def test_route_shortest_path_hop_count():
    env = Environment()
    net = small_net(env)
    route = net.route("andes1", "dsn2")
    assert route.hop_count == 2
    assert net.hop_count("andes1", "dsn1") == 1


def test_route_same_node_is_zero_hops():
    env = Environment()
    net = small_net(env)
    route = net.route("dsn1", "dsn1")
    assert route.hop_count == 0
    assert route.nodes[0].name == "dsn1"


def test_route_missing_raises():
    env = Environment()
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    with pytest.raises(KeyError):
        net.route("a", "b")


def test_register_route_forces_waypoints():
    env = Environment()
    net = small_net(env)
    forced = net.register_route("andes1", "dsn2", ["lb"])
    assert [n.name for n in forced.nodes] == ["andes1", "lb", "dsn2"]
    # route() should now return the forced route even though a 2-hop BFS
    # route through dsn1 also exists.
    assert [n.name for n in net.route("andes1", "dsn2").nodes] == [
        "andes1", "lb", "dsn2"]


def test_route_concatenation_merges_junction():
    env = Environment()
    net = small_net(env)
    first = net.route("andes1", "dsn1")
    second = net.route("dsn1", "dsn2")
    combined = first + second
    names = [n.name for n in combined.nodes]
    assert names == ["andes1", "dsn1", "dsn2"]
    assert combined.hop_count == 2


def test_describe_lists_nodes_and_links():
    env = Environment()
    net = small_net(env)
    description = net.describe()
    assert "andes1" in description["nodes"]
    assert "andes1->dsn1" in description["links"]


def test_get_node_unknown_raises():
    env = Environment()
    net = Network(env)
    with pytest.raises(KeyError):
        net.get_node("nope")


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

def test_connection_setup_cost_includes_tls():
    env = Environment()
    net = small_net(env)
    stages = [net.link_between("andes1", "dsn1"), net.get_node("dsn1")]
    plain = Connection(env, "plain", stages, tcp_handshake_s=0.001)
    secured = Connection(env, "tls", stages, tcp_handshake_s=0.001,
                         tls_handshakes=[DEFAULT_TLS])
    assert plain.setup_cost() == pytest.approx(0.001)
    assert secured.setup_cost() > plain.setup_cost()


def test_connection_send_traverses_all_stages():
    env = Environment()
    net = small_net(env)
    stages = [
        net.get_node("andes1"),
        net.link_between("andes1", "dsn1"),
        SecuredNode(net.get_node("dsn1"), DEFAULT_TLS),
    ]
    conn = Connection(env, "c", stages)
    factory = MessageFactory("prod")
    msg = factory.create(units.kib(16), now=0.0)

    def proc(env):
        yield from conn.send(msg)

    env.process(proc(env))
    env.run()
    assert conn.established
    assert conn.messages_sent == 1
    assert msg.path == ["andes1", "andes1->dsn1", "dsn1"]


def test_connection_establish_is_idempotent():
    env = Environment()
    net = small_net(env)
    conn = Connection(env, "c", [net.get_node("dsn1")], tcp_handshake_s=0.5)

    def proc(env):
        yield from conn.establish()
        first = env.now
        yield from conn.establish()
        return first, env.now

    proc_obj = env.process(proc(env))
    first, second = env.run(until=proc_obj)
    assert first == pytest.approx(0.5)
    assert second == pytest.approx(0.5)


def test_connection_requires_stages():
    env = Environment()
    with pytest.raises(ValueError):
        Connection(env, "empty", [])


def test_connection_describe_and_stage_names():
    env = Environment()
    net = small_net(env)
    conn = Connection(env, "c", [net.get_node("andes1"),
                                 net.link_between("andes1", "dsn1")])
    assert conn.stage_names == ["andes1", "andes1->dsn1"]
    assert conn.describe()["name"] == "c"
