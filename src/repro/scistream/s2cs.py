"""SciStream Control Server (S2CS).

One S2CS runs on each gateway node (§3.2).  It listens for requests brokered
by the user client, allocates local resources — listener ports in the
5000/5100–5110 range and an on-demand proxy (S2DS) process — and reports the
allocation back so the S2UC can assemble the end-to-end connection map.

Security model: the S2CS authenticates the S2UC with its server certificate
(we model certificate names and check they match), generates a self-signed
TLS certificate for the proxy at start-up, and authenticates external peers
via the tunnel's mutual TLS.
"""

from __future__ import annotations

from typing import Optional

from ..simkit import Environment, Monitor
from ..netsim.node import NetworkNode
from .control import StreamRequest, StreamReservation, new_uid
from .proxies import TunnelProxy, make_proxy
from .s2ds import S2DS

__all__ = ["S2CS"]

#: Control port and streaming port range exposed by the S2CS container (§4.4).
CONTROL_PORT = 5000
STREAM_PORT_RANGE = (5100, 5110)


class S2CS:
    """Control server managing proxies on one gateway node."""

    #: Time to generate the self-signed certificate and start the server.
    startup_latency_s = 0.5
    #: Control-plane processing per request (validation, port bookkeeping).
    request_latency_s = 0.05
    #: Time to launch one S2DS proxy process.
    proxy_launch_latency_s = 0.2

    def __init__(self, env: Environment, name: str, gateway: NetworkNode, *,
                 side: str, server_cert: str,
                 default_bandwidth_bps: float = 1e9,
                 uid_seed: int = 0,
                 monitor: Optional[Monitor] = None) -> None:
        if side not in ("producer", "consumer"):
            raise ValueError("side must be 'producer' or 'consumer'")
        self.env = env
        self.name = name
        self.gateway = gateway
        self.side = side
        self.server_cert = server_cert
        self.default_bandwidth_bps = default_bandwidth_bps
        self.monitor = monitor or Monitor(f"s2cs:{name}")
        self._next_port = STREAM_PORT_RANGE[0]
        #: Root seed of the UIDs this server issues, and how many it has.
        self.uid_seed = uid_seed
        self._uids_issued = 0
        self.data_servers: dict[str, S2DS] = {}
        self.started = False

    # -- lifecycle -----------------------------------------------------------
    def start(self):
        """Simulation process: container start-up (cert generation, bind)."""
        if not self.started:
            yield self.env.timeout(self.startup_latency_s)
            self.started = True
        return self

    def _allocate_ports(self, count: int) -> list[int]:
        low, high = STREAM_PORT_RANGE
        ports = []
        for _ in range(count):
            if self._next_port > high:
                raise RuntimeError(f"S2CS {self.name!r} exhausted its port range")
            ports.append(self._next_port)
            self._next_port += 1
        return ports

    # -- control plane -----------------------------------------------------------
    def handle_request(self, request: StreamRequest, *, proxy_type: str = "haproxy"):
        """Simulation process: satisfy an inbound/outbound request.

        Allocates ports, launches an S2DS backed by ``proxy_type`` and
        returns a :class:`StreamReservation`.
        """
        if not self.started:
            yield from self.start()
        if request.server_cert != self.server_cert:
            self.monitor.count("auth_failures")
            raise PermissionError(
                f"certificate mismatch: expected {self.server_cert!r}, "
                f"got {request.server_cert!r}")
        yield self.env.timeout(self.request_latency_s)

        uid = request.uid
        if not uid:
            uid = new_uid(self.uid_seed, self.name, self._uids_issued)
            self._uids_issued += 1
        ports = self._allocate_ports(max(1, request.num_connections))
        yield self.env.timeout(self.proxy_launch_latency_s)
        proxy = make_proxy(proxy_type, self.env, f"s2ds-{self.side}-{uid[:6]}",
                           self.gateway, num_connections=request.num_connections)
        # Note: listener allocation does not consume client-connection slots;
        # those are reserved when applications actually attach (register_connections).
        data_server = S2DS(self.env, proxy=proxy, uid=uid, side=self.side,
                           listener_ports=ports)
        self.data_servers[uid] = data_server
        self.monitor.count("requests")

        reservation = StreamReservation(
            uid=uid,
            side=self.side,
            gateway=self.gateway.name,
            listener_ports=ports,
            num_connections=request.num_connections,
            bandwidth_bps=self.default_bandwidth_bps,
        )
        return reservation

    def data_server(self, uid: str) -> S2DS:
        try:
            return self.data_servers[uid]
        except KeyError:
            raise KeyError(f"no S2DS for uid {uid!r} on {self.name!r}") from None

    def release(self, uid: str) -> None:
        self.data_servers.pop(uid, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<S2CS {self.name} side={self.side} gateway={self.gateway.name}>"
