"""A three-node RabbitMQ-style broker cluster.

The paper deploys the streaming service as a three-server RabbitMQ cluster
with one server pod per DSN (anti-affinity), for all three architectures
(§4.3–§4.5).  The cluster presents a single logical messaging namespace:

* exchange/queue *metadata* is known cluster-wide,
* every classic queue has a single **leader** broker that holds its messages
  (we place leaders round-robin across brokers, as the Bitnami chart does),
* a client is connected to one broker; publishing to / consuming from a
  queue whose leader lives on a *different* broker costs an extra
  inter-broker hop across the DSN-to-DSN links — exactly the intra-cluster
  traffic RabbitMQ generates.

The cluster therefore needs the :class:`~repro.netsim.network.Network` to
resolve inter-broker routes.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..simkit import Environment, Monitor
from ..netsim.link import Link
from ..netsim.message import Message
from ..netsim.network import Network
from .broker import Broker
from .exchange import ExchangeType
from .policies import DEFAULT_QUEUE_POLICY, OverflowPolicy, QueuePolicy
from .queue import ClassicQueue, ConsumerHandle, PublishOutcome

__all__ = ["BrokerCluster"]


class BrokerCluster:
    """Cluster façade over several :class:`Broker` instances."""

    #: Pause before a failed consumer-side delivery is requeued, so
    #: redelivery retries against a down broker are paced instead of
    #: spinning at link latency (fault-injection path only).
    relay_retry_backoff_s = 0.01

    def __init__(self, env: Environment, name: str, brokers: list[Broker],
                 network: Network, *,
                 monitor: Optional[Monitor] = None) -> None:
        if not brokers:
            raise ValueError("a cluster needs at least one broker")
        self.env = env
        self.name = name
        self.brokers = list(brokers)
        self.network = network
        self.monitor = monitor or Monitor(f"cluster:{name}")
        # Per-message instrument, resolved by name exactly once.
        self._publishes_counter = self.monitor.counter("publishes")
        #: queue name -> leader broker
        self._queue_leaders: dict[str, Broker] = {}
        self._placement_cursor = 0
        self._client_cursor = 0
        #: (src, dst) broker pair -> the links a relay crosses.
        self._relay_links: dict[tuple[Broker, Broker], tuple[Link, ...]] = {}

    # -- membership -----------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.brokers)

    def broker_by_name(self, name: str) -> Broker:
        for broker in self.brokers:
            if broker.name == name:
                return broker
        raise KeyError(f"unknown broker {name!r}")

    def assign_client_broker(self) -> Broker:
        """Round-robin assignment of client connections to brokers."""
        broker = self.brokers[self._client_cursor % len(self.brokers)]
        self._client_cursor += 1
        return broker

    # -- declarations -----------------------------------------------------------
    def declare_exchange(self, name: str,
                         type: ExchangeType = ExchangeType.DIRECT) -> None:
        for broker in self.brokers:
            broker.declare_exchange(name, type)

    def declare_queue(self, name: str, *,
                      policy: QueuePolicy = DEFAULT_QUEUE_POLICY,
                      is_control: bool = False,
                      leader: Optional[Broker] = None) -> ClassicQueue:
        """Declare a queue cluster-wide, placing its leader on one broker."""
        existing = self._queue_leaders.get(name)
        if existing is not None:
            return existing.queues[name]
        if leader is None:
            leader = self.brokers[self._placement_cursor % len(self.brokers)]
            self._placement_cursor += 1
        queue = leader.declare_queue(name, policy=policy, is_control=is_control)
        self._queue_leaders[name] = leader
        # Queue metadata is replicated cluster-wide: the default exchange on
        # every broker can route to the queue by name, exactly as RabbitMQ
        # resolves cluster-remote queues.
        for broker in self.brokers:
            broker.exchanges[""].bind(name, name)
        return queue

    def bind_queue(self, exchange_name: str, queue_name: str,
                   binding_key: str = "") -> None:
        """Bind cluster-wide: every broker knows the routing table."""
        leader = self.queue_leader(queue_name)
        for broker in self.brokers:
            exchange = broker.declare_exchange(
                exchange_name, broker.exchanges[exchange_name].type
                if exchange_name in broker.exchanges else ExchangeType.DIRECT)
            exchange.bind(queue_name, binding_key)
        # Ensure the leader actually has the queue object (it does by
        # construction); other brokers only hold metadata.
        assert queue_name in leader.queues

    def queue_leader(self, queue_name: str) -> Broker:
        try:
            return self._queue_leaders[queue_name]
        except KeyError:
            raise KeyError(f"unknown queue {queue_name!r}") from None

    def get_queue(self, queue_name: str) -> ClassicQueue:
        return self.queue_leader(queue_name).queues[queue_name]

    def queues(self) -> list[str]:
        return sorted(self._queue_leaders)

    # -- failure state -----------------------------------------------------
    def kill_broker(self, broker: "Broker | str") -> list[str]:
        """Take a broker down and fail its queues over to the survivors.

        Models replicated classic queues: each queue led by the victim is
        re-leadered round-robin onto the live brokers (sorted queue-name
        order, so failover is deterministic) and its messages move with it.
        With no survivors the queues stay on the dead broker and publishes
        fail until :meth:`revive_broker`.  Returns the re-leadered queue
        names.
        """
        if isinstance(broker, str):
            broker = self.broker_by_name(broker)
        if not broker.up:
            return []
        broker.fail()
        survivors = [b for b in self.brokers if b.up]
        moved: list[str] = []
        if survivors:
            led = sorted(name for name, leader in self._queue_leaders.items()
                         if leader is broker)
            for offset, name in enumerate(led):
                new_leader = survivors[offset % len(survivors)]
                new_leader.queues[name] = broker.queues.pop(name)
                self._queue_leaders[name] = new_leader
                moved.append(name)
            if moved:
                self.monitor.count("failovers", float(len(moved)))
        return moved

    def revive_broker(self, broker: "Broker | str") -> None:
        """Bring a failed broker back (queues do not fail back)."""
        if isinstance(broker, str):
            broker = self.broker_by_name(broker)
        broker.recover()

    def _record_down_publish(self, leader_queues: list[str],
                             multiplicity: int,
                             outcomes: list[PublishOutcome]) -> None:
        """Requeue-or-record semantics for a publish whose destination
        broker is down, keyed per destination queue's overflow policy:
        reject-publish queues nack (the producer backs off and
        republishes), drop-head queues — lossy by contract — record the
        loss and let the producer proceed.  The queue object is re-resolved
        here: the kill that downed the broker may already have failed the
        queue over to a survivor while the relay was in flight (the
        producer's retry then lands on the new leader)."""
        for queue_name in leader_queues:
            queue = self._queue_leaders[queue_name].queues[queue_name]
            if queue.policy.overflow is OverflowPolicy.DROP_HEAD:
                outcomes.append(PublishOutcome(True, "broker-down-dropped",
                                               queue_name))
                self.monitor.count("dropped_broker_down", float(multiplicity))
            else:
                outcomes.append(PublishOutcome(False, "broker-down",
                                               queue_name))
                self.monitor.count("rejected_broker_down", float(multiplicity))

    # -- data plane -----------------------------------------------------------
    def _relay_route(self, src: Broker, dst: Broker) -> tuple[Link, ...]:
        """The links a relay from ``src`` to ``dst`` crosses, routed once
        per broker pair: the topology is fixed once the testbed is built,
        and failover moves queue leaders, not links."""
        links = self._relay_links.get((src, dst))
        if links is None:
            links = tuple(self.network.route(src.host.name,
                                             dst.host.name).links)
            self._relay_links[(src, dst)] = links
        return links

    def _relay(self, src: Broker, dst: Broker, message: Message) -> Generator:
        """Move a message across the inter-broker (DSN to DSN) network.

        Returns ``True`` when the message reached ``dst``; ``False`` when
        the destination broker was down on arrival (the bytes crossed the
        wire, then died with the node — the mid-relay loss case the caller
        must resolve per queue policy).
        """
        if src is dst:
            return True
        for link in self._relay_route(src, dst):
            yield from link.traverse(message)
        if not dst.up:
            self.monitor.count("relay_failures", float(message.multiplicity))
            return False
        # The destination host spends CPU receiving the relayed message.
        yield from dst.host.traverse(message)
        self.monitor.count("interbroker_messages", float(message.multiplicity))
        self.monitor.count("interbroker_bytes",
                           message.wire_bytes * message.multiplicity)
        return True

    def publish(self, entry_broker: Broker, message: Message,
                exchange_name: str, routing_key: str) -> Generator:
        """Simulation process: publish via ``entry_broker``.

        Routes on the entry broker's (cluster-wide) routing table, relays the
        message to the leader of each destination queue when needed, and
        returns the list of :class:`PublishOutcome`.
        """
        multiplicity = message.multiplicity
        if not entry_broker.up:
            # The client's broker is down: the publish is refused outright
            # (a dead node cannot even consult its routing table).  The
            # non-empty nack makes the producer back off and republish.
            self.monitor.count("entry_broker_down", float(multiplicity))
            return [PublishOutcome(False, "broker-down", "")]
        queue_names = entry_broker.route(exchange_name, routing_key)
        outcomes: list[PublishOutcome] = []
        # Entry-broker routing cost scales with the logical message count
        # (exact at multiplicity 1).
        yield self.env.timeout(entry_broker.publish_overhead_s * multiplicity)
        if not queue_names:
            self.monitor.count("unroutable")
            return outcomes
        # Group destination queues by their leader broker: RabbitMQ replicates
        # a published message to a cluster peer once, not once per queue, so a
        # fanout over many queues on the same node costs one relay.
        by_leader: dict[Broker, list[str]] = {}
        for queue_name in queue_names:
            leader = self._queue_leaders.get(queue_name)
            if leader is None:
                outcomes.append(PublishOutcome(False, "no-queue", queue_name))
                continue
            by_leader.setdefault(leader, []).append(queue_name)
        for leader, leader_queues in by_leader.items():
            if not leader.up:
                # Known-down leader: no relay is attempted (cluster
                # membership is shared state), resolve per queue policy.
                self._record_down_publish(leader_queues, multiplicity,
                                          outcomes)
                continue
            if leader is not entry_broker:
                delivered = yield from self._relay(entry_broker, leader,
                                                   message)
                if not delivered:
                    # The leader died mid-relay: the copy is lost on the
                    # floor of the dead node, resolve per queue policy.
                    self._record_down_publish(leader_queues, multiplicity,
                                              outcomes)
                    continue
            for queue_name in leader_queues:
                # Re-resolved after the relay's yields: a kill-and-revive
                # during the traversal may have failed the queue over even
                # though the destination is up again on arrival.
                current = self._queue_leaders[queue_name]
                queue = current.queues[queue_name]
                if not queue.is_control and current.memory_pressure():
                    outcomes.append(PublishOutcome(False, "memory-watermark", queue_name))
                    current.monitor.count("blocked_publishes", float(multiplicity))
                    continue
                outcomes.append(queue.publish(message))
        self._publishes_counter.value += float(multiplicity)
        return outcomes

    def subscribe(self, queue_name: str, tag: str,
                  deliver: Callable[[Message], Generator], *,
                  consumer_broker: Optional[Broker] = None,
                  prefetch: int = 0) -> ConsumerHandle:
        """Attach a consumer to a queue, inserting the relay hop if needed.

        ``deliver`` is the client-layer generator that carries a message from
        the *consumer's* broker to the consumer application.  If the queue
        leader is a different broker, the cluster wraps it so the message
        first crosses the inter-broker network.
        """
        leader = self.queue_leader(queue_name)
        queue = leader.queues[queue_name]
        if consumer_broker is None:
            return queue.subscribe(tag, deliver, prefetch=prefetch)

        def deliver_with_relay(message: Message,
                               _queue_name: str = queue_name,
                               _consumer_broker: Broker = consumer_broker):
            # The leader is looked up per delivery, not captured at
            # subscribe time: failover may have moved the queue since.
            current_leader = self._queue_leaders[_queue_name]
            if current_leader is not _consumer_broker:
                delivered = yield from self._relay(current_leader,
                                                   _consumer_broker, message)
                if not delivered:
                    # The consumer's broker is down: pace the retry, then
                    # return the delivery to the queue so it is redelivered
                    # (to this consumer after recovery, or to a peer).
                    yield self.env.timeout(self.relay_retry_backoff_s)
                    tag_ = message.headers.get("delivery_tag")
                    if tag_ is not None:
                        # Re-resolve: failover may have moved the queue
                        # while the relay was in flight.
                        self.get_queue(_queue_name).nack_requeue(tag_)
                    return
            yield from deliver(message)

        return queue.subscribe(tag, deliver_with_relay, prefetch=prefetch)

    def ack(self, queue_name: str, delivery_tag: int, *, multiple: bool = False) -> int:
        return self.get_queue(queue_name).ack(delivery_tag, multiple=multiple)

    # -- reporting -----------------------------------------------------------
    def total_depth(self) -> int:
        return sum(broker.queues[q].depth
                   for q, broker in self._queue_leaders.items())

    def describe(self) -> dict:
        return {
            "name": self.name,
            "brokers": [b.name for b in self.brokers],
            "queues": {q: leader.name for q, leader in self._queue_leaders.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BrokerCluster {self.name} size={self.size} queues={len(self._queue_leaders)}>"
