"""Client connection abstraction over a network route.

A :class:`Connection` strings together *traversable* stages — anything with a
``traverse(message)`` generator method: links, nodes, SciStream proxies,
load balancers, ingress controllers — into a data path a message follows in
order.  It also accounts for connection setup (TCP + TLS handshakes), which
the paper pays once per producer/consumer connection at experiment start.

The same abstraction is used for all three architectures; they differ only in
which stages appear on the path and where TLS terminates.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Protocol, runtime_checkable

from ..simkit import Environment, Monitor
from .message import Message
from .node import NetworkNode
from .tls import NULL_TLS, TLSProfile

__all__ = ["Traversable", "SecuredNode", "Connection"]


@runtime_checkable
class Traversable(Protocol):
    """Anything a message can pass through on a data path."""

    name: str

    def traverse(self, message: Message) -> Generator:  # pragma: no cover
        ...


class SecuredNode:
    """A node traversal that also pays TLS record costs.

    Wraps a :class:`NetworkNode` with the :class:`TLSProfile` that applies at
    that hop (e.g. a broker node speaking AMQPS in DTS, or an ingress node
    terminating TLS in MSS) without modifying the shared node object.
    """

    def __init__(self, node: NetworkNode, tls: TLSProfile = NULL_TLS) -> None:
        self.node = node
        self.tls = tls

    @property
    def name(self) -> str:
        return self.node.name

    def traverse(self, message: Message) -> Generator:
        yield from self.node.traverse(message, tls=self.tls)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SecuredNode {self.node.name} tls={self.tls.name}>"


class Connection:
    """An established data path from one endpoint to another."""

    def __init__(self, env: Environment, name: str,
                 stages: Iterable[Traversable], *,
                 tls_handshakes: Iterable[TLSProfile] = (),
                 tcp_handshake_s: float = 0.001,
                 monitor: Optional[Monitor] = None) -> None:
        self.env = env
        self.name = name
        self.stages: list[Traversable] = list(stages)
        if not self.stages:
            raise ValueError("a connection needs at least one stage")
        self.tls_handshakes = list(tls_handshakes)
        self.tcp_handshake_s = float(tcp_handshake_s)
        self.monitor = monitor or Monitor(f"connection:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._bytes_counter = self.monitor.counter("bytes")
        self.established = False
        self.messages_sent = 0

    # -- lifecycle -----------------------------------------------------------
    def setup_cost(self) -> float:
        """Total one-time connection establishment latency."""
        cost = self.tcp_handshake_s
        cost += sum(profile.handshake_cost() for profile in self.tls_handshakes)
        return cost

    def establish(self) -> Generator:
        """Simulation process performing connection setup (idempotent)."""
        if not self.established:
            yield self.env.timeout(self.setup_cost())
            self.established = True
        return self

    # -- data path -------------------------------------------------------------
    def send(self, message: Message) -> Generator:
        """Simulation process moving one message across every stage in order."""
        if not self.established:
            yield from self.establish()
        for stage in self.stages:
            yield from stage.traverse(message)
        # Counters account logical client messages: an aggregate message of
        # multiplicity K counts as K sends (exact at K=1).
        multiplicity = message.multiplicity
        self.messages_sent += multiplicity
        self._messages_counter.value += float(multiplicity)
        self._bytes_counter.value += message.wire_bytes * multiplicity
        return message

    # -- introspection -----------------------------------------------------------
    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "stages": self.stage_names,
            "setup_cost_s": self.setup_cost(),
            "messages_sent": self.messages_sent,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Connection {self.name} stages={len(self.stages)}>"
