"""Queue and memory policies for the RabbitMQ-like streaming service.

Mirrors the configuration used in §5.2 of the paper:

* classic queues that retain a bounded number of messages in memory,
* overflow policy ``reject-publish`` so producers see backpressure and can
  republish,
* 80 % of broker RAM reserved for data payload queues, the remaining 20 %
  for control/management queues,
* batch-wise producer (publisher confirms) and consumer acknowledgements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "OverflowPolicy",
    "QueuePolicy",
    "MemoryPolicy",
    "AckPolicy",
    "ACK_MODES",
    "DEFAULT_QUEUE_POLICY",
    "DEFAULT_MEMORY_POLICY",
    "DEFAULT_ACK_POLICY",
]


class OverflowPolicy(enum.Enum):
    """What a classic queue does when it is full."""

    #: Reject the publish (producer receives a nack and may republish).
    REJECT_PUBLISH = "reject-publish"
    #: Silently drop the oldest message to make room.
    DROP_HEAD = "drop-head"


@dataclass(frozen=True)
class QueuePolicy:
    """Per-queue limits and overflow behaviour."""

    #: Maximum number of ready messages held by the queue (0 = unlimited).
    max_length: int = 0
    #: Maximum total payload bytes held by the queue (0 = unlimited).
    max_length_bytes: float = 0.0
    overflow: OverflowPolicy = OverflowPolicy.REJECT_PUBLISH
    #: Whether messages survive broker restarts (affects publish cost).
    durable: bool = False

    def accepts(self, current_length: int, current_bytes: float,
                incoming_bytes: float, incoming_count: int = 1) -> bool:
        """Whether a queue currently within these limits can take a message.

        ``incoming_count`` is the number of logical messages the publish
        stands for (the message's multiplicity); aggregate-client publishes
        consume that many slots of ``max_length`` at once.
        """
        if self.max_length and current_length + incoming_count > self.max_length:
            return False
        if self.max_length_bytes and current_bytes + incoming_bytes > self.max_length_bytes:
            return False
        return True


@dataclass(frozen=True)
class MemoryPolicy:
    """Broker-wide memory budget split between data and control queues."""

    #: Total RAM configured for the broker node (bytes); §4.3 uses 32 GiB.
    total_bytes: float = 32 * 1024 ** 3
    #: Fraction reserved for data payload queues (§5.2: 80 %).
    data_fraction: float = 0.80
    #: High watermark above which publishes are blocked (RabbitMQ default 0.4
    #: of system RAM; here relative to the configured total).
    high_watermark: float = 1.0

    @property
    def data_bytes(self) -> float:
        return self.total_bytes * self.data_fraction

    @property
    def control_bytes(self) -> float:
        return self.total_bytes * (1.0 - self.data_fraction)

    def budget_for(self, is_control: bool) -> float:
        return self.control_bytes if is_control else self.data_bytes


#: Acknowledgement modes understood by :class:`AckPolicy`.
ACK_MODES = ("batch", "per_message", "fire_and_forget")


@dataclass(frozen=True)
class AckPolicy:
    """Batch acknowledgement settings (§5.2).

    ``mode`` selects how the batch sizes are interpreted (a sweepable knob
    for the ack-policy sensitivity studies):

    * ``"batch"`` — the paper's configuration: batch sizes apply as given.
    * ``"per_message"`` — every publish waits for its confirm and every
      delivery is acknowledged individually (effective batches of 1).
    * ``"fire_and_forget"`` — producers never wait for publisher confirms
      (effective publisher batch of 0); consumer acks batch as configured.

    A bounded prefetch window smaller than the effective consumer batch is
    rejected: the consumer would stop receiving before it could fill one
    ack batch, and the stream would stall.
    """

    #: Consumer sends one cumulative ack per this many deliveries.
    consumer_batch: int = 10
    #: Producer waits for confirms after this many publishes (0 = never).
    publisher_batch: int = 10
    #: Unlimited prefetch when 0; otherwise max unacked deliveries/consumer.
    prefetch_count: int = 100
    #: How the batch settings are applied; see the class docstring.
    mode: str = "batch"

    def __post_init__(self) -> None:
        if self.mode not in ACK_MODES:
            raise ValueError(f"unknown ack mode {self.mode!r}; "
                             f"expected one of {ACK_MODES}")
        batch = max(1, self.effective_consumer_batch)
        if 0 < self.prefetch_count < batch:
            raise ValueError(
                f"prefetch_count {self.prefetch_count} is below the "
                f"consumer ack batch of {batch}: the prefetch window "
                f"fills before an ack is sent, so the consumer stalls")

    @property
    def effective_consumer_batch(self) -> int:
        return 1 if self.mode == "per_message" else self.consumer_batch

    @property
    def effective_publisher_batch(self) -> int:
        if self.mode == "per_message":
            return 1
        if self.mode == "fire_and_forget":
            return 0
        return self.publisher_batch


DEFAULT_QUEUE_POLICY = QueuePolicy(max_length=10_000)
DEFAULT_MEMORY_POLICY = MemoryPolicy()
DEFAULT_ACK_POLICY = AckPolicy()
