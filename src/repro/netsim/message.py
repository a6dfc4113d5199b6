"""Message representation shared by every layer of the simulator.

A :class:`Message` models one application-level message as produced by a
workload generator: a payload of so many bytes (optionally composed of
multiple batched events, as in the Deleria workload), plus headers, routing
information and an account of the hops it crosses: the element names in
traversal order, and per element kind the number of hops and the seconds
spent in them.  The per-kind totals are what let the coordinator attribute
latency to individual architecture components without walking every hop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Message", "MessageFactory"]

_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """An application message flowing producer → service → consumer."""

    #: Unique, monotonically increasing identifier.
    message_id: int
    #: Payload size in bytes (excluding protocol framing).
    payload_bytes: float
    #: Number of workload events batched into this message (Deleria batches 8).
    event_count: int = 1
    #: Payload encoding, informational only ("binary", "hdf5", "json").
    payload_format: str = "binary"
    #: Logical producer identifier.
    producer: str = ""
    #: AMQP routing key / queue name the producer addressed.
    routing_key: str = ""
    #: Identifies request/reply correlation for feedback patterns.
    correlation_id: Optional[int] = None
    #: Reply-to queue for request/reply (direct reply routing).
    reply_to: Optional[str] = None
    #: True for control-plane messages (JSON-encoded in Deleria).
    is_control: bool = False
    #: Simulated time the producer created the message.
    created_at: float = 0.0
    #: Simulated time the broker accepted (routed) the message.
    published_at: Optional[float] = None
    #: Simulated time a consumer finished receiving the message.
    consumed_at: Optional[float] = None
    #: Free-form metadata bag (sequence numbers, run ids, ...).
    headers: dict[str, Any] = field(default_factory=dict)
    #: Names of the elements crossed, in traversal order.
    path: list[str] = field(default_factory=list)
    #: Element kind -> ``[hops, seconds]`` over the hops crossed so far,
    #: keyed in first-traversal order.  The seconds start from the first
    #: hop's duration and add each later one in traversal order.
    hop_totals: dict[str, list] = field(default_factory=dict)

    #: Protocol framing overhead added on the wire per message (AMQP frame
    #: headers, TCP/IP overhead amortised per message).
    framing_bytes: float = 512.0

    #: How many logical client messages this object stands for.  Discrete
    #: clients always send multiplicity 1; a
    #: :class:`~repro.workloads.population.ClientPopulation` of K clients
    #: emits one aggregate message with multiplicity K, and every resource
    #: cost and counter along the path scales by it.  ``x * 1`` is exact in
    #: IEEE arithmetic, so the multiplicity-1 path is bit-identical to the
    #: historical per-client accounting.
    multiplicity: int = 1

    @property
    def wire_bytes(self) -> float:
        """Bytes that actually cross a link for this message."""
        return self.payload_bytes + self.framing_bytes

    @property
    def latency(self) -> Optional[float]:
        """Producer-to-consumer latency if the message was consumed."""
        if self.consumed_at is None:
            return None
        return self.consumed_at - self.created_at

    def record_hop(self, element: str, kind: str,
                   arrived_at: float, departed_at: float) -> None:
        """Account one traversal of ``element`` (of ``kind``)."""
        self.path.append(element)
        totals = self.hop_totals.get(kind)
        if totals is None:
            self.hop_totals[kind] = [1, departed_at - arrived_at]
        else:
            totals[0] += 1
            totals[1] += departed_at - arrived_at

    def hop_count(self) -> int:
        return len(self.path)

    def hop_breakdown(self) -> dict[str, float]:
        """Total time spent per element kind (link, proxy, broker, ...)."""
        return {kind: seconds for kind, (_, seconds) in self.hop_totals.items()}

    def make_reply(self, payload_bytes: float, now: float) -> "Message":
        """Create the reply message for a request/reply interaction."""
        reply = Message(
            message_id=next(_message_ids),
            payload_bytes=payload_bytes,
            event_count=self.event_count,
            payload_format=self.payload_format,
            producer=self.headers.get("consumer", "consumer"),
            routing_key=self.reply_to or "",
            correlation_id=self.message_id,
            created_at=now,
            multiplicity=self.multiplicity,
        )
        reply.headers["request_id"] = self.message_id
        reply.headers["request_created_at"] = self.created_at
        return reply

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Message id={self.message_id} {self.payload_bytes:.0f}B "
                f"key={self.routing_key!r}>")


class MessageFactory:
    """Creates messages with process-wide unique identifiers."""

    def __init__(self, producer: str = "", framing_bytes: float = 512.0) -> None:
        self.producer = producer
        self.framing_bytes = framing_bytes

    def create(self, payload_bytes: float, *, now: float,
               routing_key: str = "", event_count: int = 1,
               payload_format: str = "binary",
               reply_to: Optional[str] = None,
               is_control: bool = False,
               multiplicity: int = 1,
               headers: Optional[dict[str, Any]] = None) -> Message:
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        message = Message(
            message_id=next(_message_ids),
            payload_bytes=float(payload_bytes),
            event_count=int(event_count),
            payload_format=payload_format,
            producer=self.producer,
            routing_key=routing_key,
            reply_to=reply_to,
            is_control=is_control,
            created_at=now,
            framing_bytes=self.framing_bytes,
            multiplicity=int(multiplicity),
        )
        if headers:
            message.headers.update(headers)
        return message
