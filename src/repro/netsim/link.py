"""Network link model.

A :class:`Link` is a unidirectional, fixed-bandwidth channel between two
network elements.  Messages are serialized onto the link one at a time
(FIFO), which is what creates the saturation behaviour the paper observes on
its 1 Gbps Andes ↔ DSN paths: the serialization delay of one message is
``wire_bytes * 8 / bandwidth``, and concurrent messages queue behind each
other.  Propagation latency and optional jitter are added after
serialization and do not occupy the link.

Bidirectional cabling is modelled as a pair of links (see
:meth:`Network.connect <repro.netsim.network.Network.connect>`), giving
full-duplex behaviour: traffic producer→broker does not contend with
broker→consumer traffic on the same physical port.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..simkit import BatchedUniform, Environment, HandoffServer, Monitor
from .message import Message
from .units import transmission_time

__all__ = ["Link"]


class Link:
    """A unidirectional serialized link with bandwidth, latency and jitter."""

    def __init__(self, env: Environment, name: str, *,
                 bandwidth_bps: float,
                 latency_s: float = 0.0005,
                 jitter_s: float = 0.0,
                 rng: Optional["np.random.Generator | BatchedUniform"] = None,
                 monitor: Optional[Monitor] = None) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0 or jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")
        self.env = env
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.jitter_s = float(jitter_s)
        self._rng = rng
        self.monitor = monitor or Monitor(f"link:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._bytes_counter = self.monitor.counter("bytes")
        #: Serialization server: one frame on the wire at a time.
        self._wire = HandoffServer(env, capacity=1)
        self._busy_time = 0.0
        #: Fault-injection state (see :mod:`repro.faults`): the link is
        #: down until this simulated time (0 = up), and serialization is
        #: scaled by ``slowdown`` (1.0 = nominal).  The defaults add no
        #: events and change no floats, so fault-free runs stay
        #: byte-identical to the pre-fault engine.
        self.down_until = 0.0
        self.slowdown = 1.0

    # -- behaviour -----------------------------------------------------------
    def serialization_delay(self, nbytes: float) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        return transmission_time(nbytes, self.bandwidth_bps)

    def propagation_delay(self) -> float:
        """Latency plus a jitter sample (if a jitter RNG was provided)."""
        delay = self.latency_s
        if self.jitter_s > 0.0 and self._rng is not None:
            delay += float(self._rng.uniform(0.0, self.jitter_s))
        elif self.jitter_s > 0.0:
            delay += self.jitter_s / 2.0
        return delay

    def traverse(self, message: Message) -> Generator:
        """Simulation process: move ``message`` across this link.

        An aggregate message of multiplicity K occupies the wire for K
        back-to-back serializations (preserving saturation behaviour) but
        pays propagation latency — and draws jitter — once, like a burst of
        K frames pipelined behind each other.  Multiplicity 1 is
        bit-identical to the historical per-message accounting.
        """
        env = self.env
        arrived = env.now
        multiplicity = message.multiplicity
        if self.down_until > arrived:
            # Link-flap outage: frames wait for the link to come back
            # before contending for the wire (guarded so fault-free runs
            # schedule no extra event).
            yield env.timeout(self.down_until - arrived)
        wire = self._wire
        yield wire.acquire(self._serialize, message)
        # Schedule propagation before handing the wire on: with a Resource
        # wire, the next frame's serialization timeout was created after
        # it (at the next frame's grant), so equal-time ties keep order.
        propagated = env.timeout(self.propagation_delay())
        wire.release()
        yield propagated
        message.record_hop(self.name, "link", arrived, env.now)
        self._messages_counter.value += float(multiplicity)
        self._bytes_counter.value += message.wire_bytes * multiplicity

    def _serialize(self, message: Message) -> float:
        """Wire time of ``message``, read when the wire is granted to it."""
        tx = (self.serialization_delay(message.wire_bytes)
              * message.multiplicity * self.slowdown)
        self._busy_time += tx
        return tx

    # -- reporting -----------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Messages currently waiting to be serialized."""
        return self._wire.queue_length

    def utilization(self, over_seconds: Optional[float] = None) -> float:
        """Fraction of (simulated) time the wire was busy."""
        horizon = over_seconds if over_seconds is not None else self.env.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name} {self.bandwidth_bps/1e9:.1f}Gbps>"
