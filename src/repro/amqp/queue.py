"""Classic queues: bounded FIFO message buffers with consumer dispatch.

A :class:`ClassicQueue` mirrors the behaviour the paper configures in §5.2:

* a bounded in-memory buffer with an overflow policy (``reject-publish`` so
  producers observe backpressure, or ``drop-head``),
* round-robin dispatch of ready messages to the attached consumers ("messages
  are pushed to consumers in a round-robin fashion as they become available
  in the queue"),
* per-consumer prefetch credit (unacknowledged-delivery window) and
  cumulative (batch) acknowledgements,
* byte-level accounting so the broker can enforce its 80/20 memory split.

Delivery itself (moving the message across the network to the consumer) is
delegated to the consumer's *deliver function*, a generator supplied at
subscription time by the client layer; the queue only decides *when* and *to
whom* a message goes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from ..simkit import Environment, Monitor
from ..netsim.message import Message
from .policies import DEFAULT_QUEUE_POLICY, OverflowPolicy, QueuePolicy

__all__ = ["ConsumerHandle", "PublishOutcome", "ClassicQueue"]


@dataclass
class PublishOutcome:
    """Result of offering a message to a queue."""

    accepted: bool
    reason: str = ""
    queue: str = ""


@dataclass
class ConsumerHandle:
    """A consumer subscription attached to a queue."""

    tag: str
    #: Generator factory that moves one message to the consumer (network
    #: traversal + mailbox put).  Called by the queue's dispatcher.
    deliver: Callable[[Message], Generator]
    #: Maximum unacknowledged deliveries (0 = unlimited).
    prefetch: int = 0
    outstanding: int = 0
    delivered: int = 0
    acked: int = 0
    #: Delivery tags not yet acknowledged, in delivery order.
    unacked_tags: deque = field(default_factory=deque)
    active: bool = True

    def has_credit(self) -> bool:
        return self.active and (self.prefetch == 0 or self.outstanding < self.prefetch)


class ClassicQueue:
    """A RabbitMQ-style classic queue."""

    def __init__(self, env: Environment, name: str, *,
                 policy: QueuePolicy = DEFAULT_QUEUE_POLICY,
                 is_control: bool = False,
                 monitor: Optional[Monitor] = None) -> None:
        self.env = env
        self.name = name
        self.policy = policy
        self.is_control = is_control
        self.monitor = monitor or Monitor(f"queue:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._published_counter = self.monitor.counter("published")
        self._delivered_counter = self.monitor.counter("delivered")
        self._ready: deque[Message] = deque()
        self._ready_bytes = 0.0
        # Logical (multiplicity-weighted) message counts.  An aggregate
        # message of multiplicity K occupies K slots of ``max_length`` and
        # counts as K ready/unacked messages; at multiplicity 1 these equal
        # the structural deque/dict lengths exactly.
        self._ready_messages = 0
        self._unacked_messages = 0
        self._consumers: dict[str, ConsumerHandle] = {}
        self._rr_order: deque[str] = deque()
        self._next_delivery_tag = 1
        self._unacked: dict[int, tuple[str, Message]] = {}
        self._wakeup = env.event()
        self._dispatcher = env.process(self._dispatch_loop(),
                                       name=f"dispatch:{name}")
        self.published = 0
        self.rejected = 0
        self.delivered = 0
        self.acked = 0

    # -- publishing -----------------------------------------------------------
    @property
    def ready_count(self) -> int:
        """Logical ready messages (multiplicity-weighted)."""
        return self._ready_messages

    @property
    def ready_bytes(self) -> float:
        return self._ready_bytes

    @property
    def unacked_count(self) -> int:
        """Logical unacknowledged messages (multiplicity-weighted)."""
        return self._unacked_messages

    @property
    def depth(self) -> int:
        """Ready plus unacknowledged messages (RabbitMQ's 'messages' count)."""
        return self.ready_count + self.unacked_count

    def publish(self, message: Message) -> PublishOutcome:
        """Offer a message to the queue, applying the overflow policy.

        Bounds and counters are applied in logical units: an aggregate
        message of multiplicity K takes K slots of ``max_length`` and K
        messages' worth of bytes, so population runs see the same
        backpressure a fleet of discrete clients would.
        """
        multiplicity = message.multiplicity
        incoming_bytes = message.payload_bytes * multiplicity
        if not self.policy.accepts(self._ready_messages, self._ready_bytes,
                                   incoming_bytes, multiplicity):
            if self.policy.overflow is OverflowPolicy.REJECT_PUBLISH:
                self.rejected += multiplicity
                self.monitor.count("rejected", float(multiplicity))
                return PublishOutcome(False, "queue-full", self.name)
            # drop-head: evict the oldest ready message to make room.
            if self._ready:
                victim = self._ready.popleft()
                self._ready_bytes -= victim.payload_bytes * victim.multiplicity
                self._ready_messages -= victim.multiplicity
                self.monitor.count("dropped", float(victim.multiplicity))
        self._ready.append(message)
        self._ready_bytes += incoming_bytes
        self._ready_messages += multiplicity
        self.published += multiplicity
        message.published_at = self.env.now
        self._published_counter.value += float(multiplicity)
        self._notify()
        return PublishOutcome(True, "", self.name)

    # -- consuming -----------------------------------------------------------
    def subscribe(self, tag: str, deliver: Callable[[Message], Generator], *,
                  prefetch: int = 0) -> ConsumerHandle:
        if tag in self._consumers:
            raise ValueError(f"consumer tag {tag!r} already subscribed to {self.name!r}")
        handle = ConsumerHandle(tag=tag, deliver=deliver, prefetch=prefetch)
        self._consumers[tag] = handle
        self._rr_order.append(tag)
        self._notify()
        return handle

    def cancel(self, tag: str, *, requeue: bool = False) -> int:
        """Detach a consumer; optionally requeue its unacked deliveries.

        ``requeue=True`` is the churn/failover path: every delivery the
        consumer had in flight goes back to the *head* of the queue (in
        original order) so the surviving consumers pick the work up —
        at-least-once semantics, like AMQP's basic.cancel + connection
        loss.  Returns the number of logical messages requeued.
        """
        handle = self._consumers.pop(tag, None)
        if handle is None:
            return 0
        handle.active = False
        try:
            self._rr_order.remove(tag)
        except ValueError:
            pass
        requeued = 0
        if requeue:
            # appendleft in reverse delivery order restores queue order.
            for delivery_tag in reversed(list(handle.unacked_tags)):
                entry = self._unacked.pop(delivery_tag, None)
                if entry is None:
                    continue
                _, message = entry
                self._ready.appendleft(message)
                self._ready_bytes += message.payload_bytes * message.multiplicity
                self._ready_messages += message.multiplicity
                self._unacked_messages -= message.multiplicity
                requeued += message.multiplicity
            handle.unacked_tags.clear()
            handle.outstanding = 0
            if requeued:
                self.monitor.count("requeued", float(requeued))
                self._notify()
        return requeued

    @property
    def consumer_count(self) -> int:
        return len(self._consumers)

    def ack(self, delivery_tag: int, *, multiple: bool = False) -> int:
        """Acknowledge a delivery (cumulatively if ``multiple``).

        Returns the number of deliveries settled.
        """
        if multiple:
            tags = sorted(t for t in self._unacked if t <= delivery_tag)
        else:
            tags = [delivery_tag] if delivery_tag in self._unacked else []
        settled_logical = 0
        for tag in tags:
            consumer_tag, message = self._unacked.pop(tag)
            handle = self._consumers.get(consumer_tag)
            if handle is not None:
                handle.outstanding = max(0, handle.outstanding - 1)
                handle.acked += 1
                try:
                    handle.unacked_tags.remove(tag)
                except ValueError:
                    pass
            self.acked += message.multiplicity
            self._unacked_messages -= message.multiplicity
            settled_logical += message.multiplicity
        if tags:
            self.monitor.count("acked", float(settled_logical))
            self._notify()
        return len(tags)

    def nack_requeue(self, delivery_tag: int) -> bool:
        """Return an unacknowledged delivery to the head of the queue."""
        entry = self._unacked.pop(delivery_tag, None)
        if entry is None:
            return False
        consumer_tag, message = entry
        handle = self._consumers.get(consumer_tag)
        if handle is not None:
            handle.outstanding = max(0, handle.outstanding - 1)
            try:
                handle.unacked_tags.remove(delivery_tag)
            except ValueError:
                pass
        self._ready.appendleft(message)
        self._ready_bytes += message.payload_bytes * message.multiplicity
        self._ready_messages += message.multiplicity
        self._unacked_messages -= message.multiplicity
        self.monitor.count("requeued", float(message.multiplicity))
        self._notify()
        return True

    # -- dispatch -----------------------------------------------------------
    def _notify(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _next_consumer_with_credit(self) -> Optional[ConsumerHandle]:
        for _ in range(len(self._rr_order)):
            tag = self._rr_order[0]
            self._rr_order.rotate(-1)
            handle = self._consumers.get(tag)
            if handle is not None and handle.has_credit():
                return handle
        return None

    def _dispatch_loop(self) -> Generator:
        while True:
            handle = self._next_consumer_with_credit() if self._ready else None
            if not self._ready or handle is None:
                # Nothing to do until a publish, subscribe or ack happens.
                yield self._wakeup
                self._wakeup = self.env.event()
                continue
            message = self._ready.popleft()
            multiplicity = message.multiplicity
            self._ready_bytes -= message.payload_bytes * multiplicity
            self._ready_messages -= multiplicity
            self._unacked_messages += multiplicity
            delivery_tag = self._next_delivery_tag
            self._next_delivery_tag = delivery_tag + 1
            # Prefetch credit stays in aggregate-delivery units: one
            # aggregate delivery represents one in-flight message per
            # population member, so per-consumer windows apply unchanged.
            handle.outstanding += 1
            handle.delivered += 1
            handle.unacked_tags.append(delivery_tag)
            self._unacked[delivery_tag] = (handle.tag, message)
            self.delivered += multiplicity
            message.headers["delivery_tag"] = delivery_tag
            message.headers["consumer_tag"] = handle.tag
            message.headers["queue"] = self.name
            self._delivered_counter.value += float(multiplicity)
            # Deliveries pipeline: each runs as its own process so a slow
            # consumer path does not head-of-line block the queue.
            self.env.process(handle.deliver(message),
                             name=f"deliver:{self.name}:{delivery_tag}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ClassicQueue {self.name!r} ready={self.ready_count} "
                f"unacked={self.unacked_count} consumers={self.consumer_count}>")
