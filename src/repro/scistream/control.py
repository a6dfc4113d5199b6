"""SciStream control-plane protocol objects.

SciStream (§3.2) separates control and data planes.  The control plane is
driven by the user client (S2UC), which sends an *inbound request* to the
consumer-side control server (S2CS) and an *outbound request* to the
producer-side control server.  Each request carries the certificate of the
target S2CS, the remote peer's address, the ports the application listens
on, and the number of parallel connections; the responses carry the
allocated proxy (S2DS) listener ports and a unique identifier (UID) that
ties the two halves of a streaming session together.

These dataclasses model the protocol messages and the resulting
*connection map* (producer listeners ↔ tunnel ↔ consumer listeners).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..simkit.rand import derive_seed

__all__ = [
    "StreamRequest",
    "StreamReservation",
    "ConnectionMap",
    "new_uid",
]

_request_ids = itertools.count(1)


def new_uid(root_seed: int, *names: str | int) -> str:
    """The unique identifier returned by an inbound request: 16 hex
    characters derived from the run's root seed and the issuer's path
    (``derive_seed``), so a run issues the same UIDs on every backend."""
    return f"{derive_seed(root_seed, 'scistream-uid', *names):016x}"


@dataclass(frozen=True)
class StreamRequest:
    """An inbound or outbound request issued by the S2UC."""

    direction: str                      # "inbound" (consumer side) or "outbound"
    server_cert: str                    # path/name of the target S2CS certificate
    remote_ip: str                      # the peer facility's address
    s2cs_address: str                   # host:port of the targeted S2CS
    receiver_ports: tuple[int, ...]     # application (or proxy) ports to bridge
    num_connections: int = 1
    uid: str = ""                       # empty for inbound; set for outbound
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.direction not in ("inbound", "outbound"):
            raise ValueError("direction must be 'inbound' or 'outbound'")
        if self.num_connections < 1:
            raise ValueError("num_connections must be >= 1")
        if not self.receiver_ports:
            raise ValueError("at least one receiver port is required")
        if self.direction == "outbound" and not self.uid:
            raise ValueError("outbound requests must carry the UID from the "
                             "inbound response")


@dataclass
class StreamReservation:
    """What an S2CS hands back: the proxy listeners it allocated."""

    uid: str
    side: str                           # "producer" or "consumer"
    gateway: str                        # gateway node the S2DS runs on
    listener_ports: list[int]
    num_connections: int
    bandwidth_bps: float

    @property
    def primary_port(self) -> int:
        return self.listener_ports[0]


@dataclass
class ConnectionMap:
    """The established mapping for one streaming session."""

    uid: str
    producer_reservation: StreamReservation
    consumer_reservation: StreamReservation
    target_ports: tuple[int, ...]

    @property
    def num_connections(self) -> int:
        return min(self.producer_reservation.num_connections,
                   self.consumer_reservation.num_connections)

    def describe(self) -> dict:
        return {
            "uid": self.uid,
            "producer_gateway": self.producer_reservation.gateway,
            "consumer_gateway": self.consumer_reservation.gateway,
            "producer_ports": list(self.producer_reservation.listener_ports),
            "consumer_ports": list(self.consumer_reservation.listener_ports),
            "target_ports": list(self.target_ports),
            "num_connections": self.num_connections,
        }
