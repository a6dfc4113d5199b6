"""Hardware load balancer model for the MSS architecture.

§4.5: "the load balancer is dedicated hardware located outside the OpenShift
cluster.  It forwards traffic to the cluster's OpenShift ingress controller".
Producers and consumers connect to the FQDN that terminates here (port 443).

The load balancer is a :class:`Traversable` data-path stage: it distributes
incoming connections over its backends, charges a per-message forwarding
cost on its host node, and bounds the number of messages it forwards
concurrently — the shared-frontend contention that makes MSS cap out beyond
~8 consumers in the paper.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..simkit import Environment, Monitor, Resource
from ..netsim.dns import Endpoint
from ..netsim.message import Message
from ..netsim.node import NetworkNode
from ..netsim.tls import NULL_TLS, TLSProfile

__all__ = ["HardwareLoadBalancer"]


class HardwareLoadBalancer:
    """Facility-managed L4 load balancer fronting the OpenShift ingress."""

    def __init__(self, env: Environment, name: str, host: NetworkNode, *,
                 tls: TLSProfile = NULL_TLS,
                 max_inflight: int = 96,
                 algorithm: str = "round-robin") -> None:
        self.env = env
        self.name = name
        self.host = host
        self.tls = tls
        self.algorithm = algorithm
        self.monitor = Monitor(f"lb:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._bytes_counter = self.monitor.counter("bytes")
        self._inflight = Resource(env, capacity=max_inflight)
        self._backends: list[Endpoint] = []
        self._cursor = 0
        self.connections_assigned = 0

    # -- backend management ------------------------------------------------------
    def add_backend(self, endpoint: Endpoint) -> None:
        self._backends.append(endpoint)

    @property
    def backends(self) -> list[Endpoint]:
        return list(self._backends)

    def next_backend(self) -> Endpoint:
        """Pick the backend for a new client connection."""
        if not self._backends:
            raise RuntimeError(f"load balancer {self.name!r} has no backends")
        if self.algorithm == "round-robin":
            endpoint = self._backends[self._cursor % len(self._backends)]
            self._cursor += 1
        else:  # "first-available" fallback
            endpoint = self._backends[0]
        self.connections_assigned += 1
        return endpoint

    # -- data path ------------------------------------------------------------
    def traverse(self, message: Message) -> Generator:
        with self._inflight.request() as slot:
            yield slot
            yield from self.host.traverse(message, tls=self.tls)
        self._messages_counter.value += float(message.multiplicity)
        self._bytes_counter.value += message.wire_bytes * message.multiplicity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HardwareLoadBalancer {self.name} backends={len(self._backends)}>"
