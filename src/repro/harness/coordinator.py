"""Experiment coordinator.

§5.2: "the simulator includes a coordinator component that serves two
primary functions.  First, it informs producers and consumers about which
queues to use.  Second, it collects metrics from individual
consumers/producers and reports the aggregate results for the entire
experiment."

The :class:`Coordinator` here does the same: it distributes the queue plan
(filled in by the messaging pattern), collects the per-message records from
every producer/consumer app, and triggers its ``done`` event once the run's
expected message/reply counts have been observed so the experiment can stop
the simulation and reduce the metrics.

Latency attribution by element kind (``hop_time_by_kind`` and
``hop_count_by_kind``) folds the per-kind hop totals each consumed message
carries (see :meth:`Message.record_hop
<repro.netsim.message.Message.record_hop>`), so a consume costs O(kinds),
not O(hops).
"""

from __future__ import annotations

from array import array
from typing import Optional

from ..simkit import Environment, Monitor
from ..netsim.message import Message

__all__ = ["Coordinator"]


class Coordinator:
    """Collects per-run measurements and signals completion."""

    def __init__(self, env: Environment, *,
                 expected_consumed: int,
                 expected_replies: int = 0) -> None:
        if expected_consumed < 0 or expected_replies < 0:
            raise ValueError("expected counts must be non-negative")
        self.env = env
        self.expected_consumed = int(expected_consumed)
        self.expected_replies = int(expected_replies)
        self.monitor = Monitor("coordinator")
        self.done = env.event()

        # Queue plan announced to producers and consumers by the pattern.
        self.work_queues: list[str] = []
        self.reply_queues: dict[str, str] = {}

        # Measurement state.  Latency/RTT samples are array('d') column
        # buffers (one C double per message, no boxed floats); the stats
        # layer consumes them without copying.
        self.published = 0
        self.failed_publishes = 0
        self.consumed = 0
        self.replies = 0
        self.consumed_payload_bytes = 0.0
        self.first_publish_time: Optional[float] = None
        self.last_consume_time: Optional[float] = None
        self.latency_samples: array = array("d")
        self.rtt_samples: array = array("d")
        # Parallel multiplicity-weight columns: one entry per sample above.
        # Discrete clients record weight 1.0; an aggregate message of
        # multiplicity K records its representative sample once with weight
        # K.  ``weighted`` flips to True the first time any weight differs
        # from 1, so unweighted runs reduce through the historical
        # (bit-identical) unweighted stats path.
        self.latency_weights: array = array("d")
        self.rtt_weights: array = array("d")
        self.weighted = False
        self.per_consumer_counts: dict[str, int] = {}
        self.per_producer_replies: dict[str, int] = {}
        self.finished_producers: set[str] = set()
        #: Cumulative time spent per element kind (link, broker-host, proxy,
        #: lb, ingress, ...) across all consumed messages — the latency
        #: attribution the paper's hop-count discussion motivates.
        self.hop_time_by_kind: dict[str, float] = {}
        self.hop_count_by_kind: dict[str, int] = {}
        # Hot-path counters, resolved by name exactly once.
        monitor = self.monitor
        self._published_counter = monitor.counter("published")
        self._consumed_counter = monitor.counter("consumed")
        self._replies_counter = monitor.counter("replies")

    # -- queue plan -----------------------------------------------------------
    def announce_queues(self, work_queues: list[str],
                        reply_queues: Optional[dict[str, str]] = None) -> None:
        """Record which queues the pattern declared (visible to all apps)."""
        self.work_queues = list(work_queues)
        self.reply_queues = dict(reply_queues or {})

    # -- recording -----------------------------------------------------------
    def record_publish(self, message: Message) -> None:
        self.published += message.multiplicity
        if self.first_publish_time is None:
            self.first_publish_time = self.env.now
        self._published_counter.value += float(message.multiplicity)

    def record_failed_publish(self, message: Message) -> None:
        self.failed_publishes += message.multiplicity
        self.monitor.count("failed_publishes", float(message.multiplicity))

    def record_consume(self, message: Message, consumer: str) -> None:
        multiplicity = message.multiplicity
        if multiplicity != 1:
            self.weighted = True
        self.consumed += multiplicity
        self.consumed_payload_bytes += message.payload_bytes * multiplicity
        self.last_consume_time = self.env.now
        self.per_consumer_counts[consumer] = (
            self.per_consumer_counts.get(consumer, 0) + multiplicity)
        consumed_at = message.consumed_at
        if consumed_at is not None:
            self.latency_samples.append(consumed_at - message.created_at)
            self.latency_weights.append(float(multiplicity))
        # The message carries per-kind subtotals (hops, seconds), summed in
        # traversal order as hops were recorded: folding them costs
        # O(kinds), and the run-wide float sums (part of every serialized
        # result) are those of a per-hop walk.  Hop counts are logical: an
        # aggregate message's hop stands for one traversal per represented
        # client.  The hop *times* are not rescaled: aggregate hop
        # durations already embody the K-fold serialization/CPU cost.
        counts = self.hop_count_by_kind
        times = self.hop_time_by_kind
        for kind, (hops, seconds) in message.hop_totals.items():
            counts[kind] = counts.get(kind, 0) + hops * multiplicity
            times[kind] = times.get(kind, 0.0) + seconds
        self._consumed_counter.value += float(multiplicity)
        self._check_done()

    def record_reply(self, reply: Message, producer: str) -> None:
        multiplicity = reply.multiplicity
        if multiplicity != 1:
            self.weighted = True
        self.replies += multiplicity
        self.last_consume_time = self.env.now
        self.per_producer_replies[producer] = (
            self.per_producer_replies.get(producer, 0) + multiplicity)
        request_created = reply.headers.get("request_created_at")
        if request_created is not None:
            self.rtt_samples.append(self.env.now - float(request_created))
            self.rtt_weights.append(float(multiplicity))
        self._replies_counter.value += float(multiplicity)
        self._check_done()

    def record_producer_finished(self, producer: str) -> None:
        self.finished_producers.add(producer)
        self.monitor.count("producers_finished")

    # -- completion -----------------------------------------------------------
    def targets_met(self) -> bool:
        return (self.consumed >= self.expected_consumed
                and self.replies >= self.expected_replies)

    def _check_done(self) -> None:
        if not self.done.triggered and self.targets_met():
            self.done.succeed({
                "consumed": self.consumed,
                "replies": self.replies,
                "time": self.env.now,
            })

    # -- reduction -----------------------------------------------------------
    def measurement_window(self) -> tuple[float, float]:
        """(first publish, last consume) times of the run."""
        start = self.first_publish_time if self.first_publish_time is not None else 0.0
        end = self.last_consume_time if self.last_consume_time is not None else start
        return start, end

    def latency_attribution(self) -> dict[str, float]:
        """Fraction of total hop time spent per element kind (sums to 1)."""
        total = sum(self.hop_time_by_kind.values())
        if total <= 0:
            return {}
        return {kind: seconds / total
                for kind, seconds in sorted(self.hop_time_by_kind.items())}

    def balance_across_consumers(self) -> float:
        """Max/min ratio of per-consumer message counts (1.0 = perfectly even)."""
        counts = [c for c in self.per_consumer_counts.values() if c > 0]
        if not counts:
            return float("nan")
        return max(counts) / min(counts)

    def snapshot(self) -> dict:
        start, end = self.measurement_window()
        return {
            "published": self.published,
            "consumed": self.consumed,
            "replies": self.replies,
            "failed_publishes": self.failed_publishes,
            "first_publish_time": start,
            "last_consume_time": end,
            "consumers": dict(self.per_consumer_counts),
            "producers_finished": sorted(self.finished_producers),
            "hop_time_by_kind": dict(self.hop_time_by_kind),
            "hop_count_by_kind": dict(self.hop_count_by_kind),
            "latency_attribution": self.latency_attribution(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Coordinator consumed={self.consumed}/{self.expected_consumed} "
                f"replies={self.replies}/{self.expected_replies}>")
