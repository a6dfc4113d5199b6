"""Network node (host) model.

A :class:`NetworkNode` represents a host that handles messages: an Andes
compute node, a Data Streaming Node, a gateway node running a proxy, a load
balancer appliance or an ingress node.  What matters for the streaming
evaluation is its *per-message processing cost* (protocol parsing, copying
between sockets, routing decisions) and its *concurrency* (how many messages
it can work on at once, a proxy for core count and the software's internal
parallelism).

Higher-level components (brokers, proxies, load balancers) own a node and
add their own queueing/policy logic; the node supplies the raw CPU model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..simkit import Environment, HandoffServer, Monitor
from .message import Message
from .tls import NULL_TLS, TLSProfile

__all__ = ["NodeSpec", "NetworkNode"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a host's capabilities.

    The defaults approximate the Andes compute nodes from §5.2 (two 16-core
    3.0 GHz EPYC 7302, 256 GiB RAM); DSNs use a larger spec (§4.1).
    """

    cores: int = 32
    memory_bytes: float = 256 * 1024 ** 3
    #: Fixed CPU time consumed per handled message (s).
    per_message_seconds: float = 20e-6
    #: CPU time consumed per payload byte (s/B): memcpy/parse costs.
    per_byte_seconds: float = 2.0e-10
    #: How many messages the host software works on concurrently.
    concurrency: int = 8


class NetworkNode:
    """A host with bounded processing concurrency and per-message cost."""

    def __init__(self, env: Environment, name: str,
                 spec: Optional[NodeSpec] = None, *,
                 role: str = "host",
                 monitor: Optional[Monitor] = None) -> None:
        self.env = env
        self.name = name
        self.spec = spec or NodeSpec()
        self.role = role
        self.monitor = monitor or Monitor(f"node:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._bytes_counter = self.monitor.counter("bytes")
        self._cpu = HandoffServer(env, capacity=max(1, self.spec.concurrency))
        self._busy_time = 0.0

    # -- behaviour -----------------------------------------------------------
    def service_time(self, message: Message, tls: TLSProfile = NULL_TLS) -> float:
        """CPU time to handle one message (excluding queueing)."""
        spec = self.spec
        cost = spec.per_message_seconds + spec.per_byte_seconds * message.wire_bytes
        cost += tls.message_cost(message.wire_bytes)
        return cost

    def traverse(self, message: Message,
                 tls: TLSProfile = NULL_TLS) -> Generator:
        """Simulation process: spend CPU handling ``message`` on this host.

        An aggregate message of multiplicity K costs K messages' worth of
        CPU (it stands for K client messages); multiplicity 1 is
        bit-identical to the historical per-message accounting.
        """
        arrived = self.env.now
        multiplicity = message.multiplicity
        cpu = self._cpu
        yield cpu.acquire(self._serve, message, tls)
        cpu.release()
        message.record_hop(self.name, self.role, arrived, self.env.now)
        self._messages_counter.value += float(multiplicity)
        self._bytes_counter.value += message.wire_bytes * multiplicity

    def _serve(self, message: Message, tls: TLSProfile) -> float:
        """CPU time of ``message``, computed when a unit is granted to it."""
        cost = self.service_time(message, tls) * message.multiplicity
        self._busy_time += cost
        return cost

    # -- reporting -----------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return self._cpu.queue_length

    @property
    def in_service(self) -> int:
        return self._cpu.busy

    def utilization(self, over_seconds: Optional[float] = None) -> float:
        horizon = over_seconds if over_seconds is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / (horizon * max(1, self.spec.concurrency)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NetworkNode {self.name} role={self.role}>"
