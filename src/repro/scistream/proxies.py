"""Tunnel proxy implementations: Stunnel, HAProxy and Nginx.

SciStream's data servers (S2DS) can be backed by different proxy programs
(§4.4).  Their behavioural differences are exactly what the paper's PRS
results hinge on:

* **Stunnel** wraps traffic in a small number of long-lived TLS flows and
  performs *no load balancing*: all multiplexed application flows funnel
  through (effectively) one worker, and the deployment could support at most
  16 simultaneous connections — configurations with 32 and 64 consumers were
  infeasible.  We model it as a single-worker proxy with a hard connection
  cap of 16 and a comparatively high per-message TLS cost.
* **HAProxy** load-balances across multiple worker connections, so it scales
  with consumer count until the gateway host or its 1 Gbps link saturates.
  Increasing the number of parallel client connections (``num_conn``) adds
  bookkeeping but little throughput, as the paper observes.
* **Nginx** is supported by SciStream but was not evaluated; it is provided
  here (as a stream-module style TCP proxy) for completeness and ablations.

Every proxy is a :class:`~repro.netsim.connection.Traversable` stage.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..simkit import Environment, Monitor, Resource
from ..netsim.message import Message
from ..netsim.node import NetworkNode
from ..netsim.tls import MUTUAL_TLS, NULL_TLS, TLSProfile

__all__ = ["ProxyError", "TunnelProxy", "StunnelProxy", "HAProxyProxy", "NginxProxy",
           "make_proxy", "PROXY_TYPES"]


class ProxyError(RuntimeError):
    """Raised when a proxy cannot satisfy a connection request."""


class TunnelProxy:
    """Base class for S2DS tunnel proxies."""

    #: Human-readable proxy type ("stunnel", "haproxy", "nginx").
    proxy_type = "generic"
    #: Messages the proxy software works on concurrently.
    worker_concurrency = 8
    #: Hard limit on simultaneous client connections (0 = unlimited).
    max_connections = 0
    #: Fixed per-message forwarding cost (socket copy, framing) in seconds.
    per_message_seconds = 25e-6
    #: Per-byte forwarding cost (userspace copy + cipher) in seconds/byte.
    per_byte_seconds = 2.0e-10
    #: TLS profile applied on the WAN-facing tunnel side.
    tunnel_tls: TLSProfile = MUTUAL_TLS

    def __init__(self, env: Environment, name: str, host: NetworkNode, *,
                 num_connections: int = 1,
                 monitor: Optional[Monitor] = None) -> None:
        if num_connections < 1:
            raise ValueError("num_connections must be >= 1")
        self.env = env
        self.name = name
        self.host = host
        self.num_connections = num_connections
        self.monitor = monitor or Monitor(f"proxy:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._bytes_counter = self.monitor.counter("bytes")
        self._workers = Resource(env, capacity=self.effective_concurrency())
        self._registered_connections = 0

    # -- capacity ------------------------------------------------------------
    def effective_concurrency(self) -> int:
        """Worker slots available to forward messages concurrently."""
        return max(1, self.worker_concurrency)

    def register_connections(self, count: int) -> None:
        """Reserve client connections on this proxy (raises when over the cap)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if self.max_connections and self._registered_connections + count > self.max_connections:
            raise ProxyError(
                f"{self.proxy_type} proxy {self.name!r} supports at most "
                f"{self.max_connections} simultaneous connections "
                f"({self._registered_connections} in use, {count} requested)")
        self._registered_connections += count
        self.monitor.count("connections", count)

    @property
    def registered_connections(self) -> int:
        return self._registered_connections

    # -- data path ------------------------------------------------------------
    def forwarding_cost(self, message: Message) -> float:
        """Per-message cost paid inside the proxy worker."""
        return (self.per_message_seconds
                + self.per_byte_seconds * message.wire_bytes
                + self.tunnel_tls.message_cost(message.wire_bytes))

    def traverse(self, message: Message) -> Generator:
        arrived = self.env.now
        # An aggregate message of multiplicity K pays K messages' worth of
        # forwarding work (exact at K=1); the host node scales its own cost.
        multiplicity = message.multiplicity
        with self._workers.request() as worker:
            yield worker
            # Host CPU (shared with everything else on the gateway node).
            yield from self.host.traverse(message, tls=NULL_TLS)
            # Proxy-software forwarding and tunnel crypto.
            yield self.env.timeout(self.forwarding_cost(message) * multiplicity)
        message.record_hop(self.name, "proxy", arrived, self.env.now)
        self._messages_counter.value += float(multiplicity)
        self._bytes_counter.value += message.wire_bytes * multiplicity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} {self.name} host={self.host.name} "
                f"conns={self._registered_connections}>")


class StunnelProxy(TunnelProxy):
    """Stunnel: few long-lived TLS flows, no load balancing, 16-connection cap.

    A single TLS-wrapped flow means all traffic funnels through one worker at
    roughly single-core AES throughput (~125 MB/s), which is what keeps the
    paper's Stunnel curves flat.
    """

    proxy_type = "stunnel"
    worker_concurrency = 1
    max_connections = 16
    per_message_seconds = 400e-6
    per_byte_seconds = 2.0e-8
    tunnel_tls = MUTUAL_TLS

    def effective_concurrency(self) -> int:
        # A single TLS-wrapped flow: no parallel forwarding regardless of the
        # number of client connections.
        return 1


class HAProxyProxy(TunnelProxy):
    """HAProxy: load-balancing TCP proxy; scales with parallel connections."""

    proxy_type = "haproxy"
    worker_concurrency = 8
    max_connections = 0
    per_message_seconds = 30e-6
    per_byte_seconds = 5.0e-10
    tunnel_tls = MUTUAL_TLS

    def effective_concurrency(self) -> int:
        # Extra parallel client connections add a little pipelining headroom
        # but the gateway host/link remains the real limit (the paper sees no
        # significant gain from 4 connections).
        return self.worker_concurrency + min(self.num_connections - 1, 4)


class NginxProxy(TunnelProxy):
    """Nginx stream proxy: similar to HAProxy with slightly higher overhead."""

    proxy_type = "nginx"
    worker_concurrency = 8
    max_connections = 0
    per_message_seconds = 35e-6
    per_byte_seconds = 6.0e-10
    tunnel_tls = MUTUAL_TLS


PROXY_TYPES = {
    "stunnel": StunnelProxy,
    "haproxy": HAProxyProxy,
    "nginx": NginxProxy,
}


def make_proxy(proxy_type: str, env: Environment, name: str, host: NetworkNode, *,
               num_connections: int = 1) -> TunnelProxy:
    """Factory used by S2CS when launching an S2DS with a given backend."""
    try:
        cls = PROXY_TYPES[proxy_type.lower()]
    except KeyError:
        raise ValueError(
            f"unknown proxy type {proxy_type!r}; expected one of {sorted(PROXY_TYPES)}"
        ) from None
    return cls(env, name, host, num_connections=num_connections)
