"""Proxied Streaming (PRS) built on the SciStream toolkit.

§2.2/§4.4: producers reach the streaming service through a pair of
on-demand proxies (S2DS) launched by the producer-side and consumer-side
control servers (S2CS) on two gateway DSNs; the two proxies are joined by a
TLS overlay tunnel (Stunnel or HAProxy).  Consumers are inside the HPC
facility and connect to the RabbitMQ NodePorts directly, exactly as in DTS
(Figure 3b).  AMQP is used *without* TLS because the tunnel already
provides encryption and authentication.

Data paths (per message)::

    publish : producer → core → producer-proxy → [tunnel] → consumer-proxy
              → core → DSN/broker
    deliver to consumer : DSN/broker → core → consumer          (direct)
    deliver to producer : DSN/broker → core → consumer-proxy → [tunnel]
              → producer-proxy → core → producer                (replies)

Tuning options mirror the paper: the tunnel proxy type (``stunnel`` /
``haproxy`` / ``nginx``) and the number of parallel connections between the
applications and their proxies (``num_connections``).  Stunnel supports at
most 16 simultaneous connections, so attaching more producers raises
:class:`~repro.architectures.base.DeploymentError` — the paper's missing
32/64-consumer data points.
"""

from __future__ import annotations

from typing import Generator

from ..amqp import Broker
from ..netsim.connection import Traversable
from ..netsim.tls import MUTUAL_TLS, TLSProfile
from ..scistream import S2CS, S2UC, ProxyError, StreamingSession
from .base import ClientEndpoints, DeploymentError, StreamingArchitecture
from .deployment import DeploymentReport
from .testbed import Testbed

__all__ = ["PRSArchitecture"]


class PRSArchitecture(StreamingArchitecture):
    """Proxied Streaming via SciStream on-demand proxies."""

    name = "PRS"

    def __init__(self, testbed: Testbed, *, proxy_type: str = "haproxy",
                 num_connections: int = 1, **kwargs) -> None:
        super().__init__(testbed, **kwargs)
        self.proxy_type = proxy_type.lower()
        self.num_connections = int(num_connections)
        if self.num_connections < 1:
            raise ValueError("num_connections must be >= 1")
        display_names = {"haproxy": "HAProxy", "stunnel": "Stunnel", "nginx": "Nginx"}
        suffix = display_names.get(self.proxy_type, self.proxy_type.capitalize())
        if self.num_connections > 1:
            self.label = f"PRS({suffix},{self.num_connections}conns)"
        else:
            self.label = f"PRS({suffix})"
        self.session: StreamingSession | None = None
        self.producer_s2cs: S2CS | None = None
        self.consumer_s2cs: S2CS | None = None
        self.s2uc = S2UC(self.env)

    # -- control plane ------------------------------------------------------------
    def deploy(self) -> Generator:
        """Run the SciStream inbound/outbound request flow (§4.4)."""
        testbed = self.testbed
        self.producer_s2cs = S2CS(self.env, "prod-s2cs", testbed.producer_gateway,
                                  side="producer", server_cert="prod-s2cs.crt",
                                  default_bandwidth_bps=testbed.config.link_bandwidth_bps,
                                  uid_seed=testbed.config.seed)
        self.consumer_s2cs = S2CS(self.env, "cons-s2cs", testbed.consumer_gateway,
                                  side="consumer", server_cert="cons-s2cs.crt",
                                  default_bandwidth_bps=testbed.config.link_bandwidth_bps,
                                  uid_seed=testbed.config.seed)
        # The proof-of-concept exposes each S2CS via a NodePort (§4.4) and
        # needs one firewall pinhole per gateway for the tunnel/control ports.
        facility = testbed.hpc_facility
        facility.nodeports.allocate("prod-s2cs", preferred=30500)
        facility.nodeports.allocate("cons-s2cs", preferred=30600)
        facility.open_ingress("198.51.100.0/24", "gw-prod", 30500,
                              description="PRS producer-side S2CS/S2DS")
        facility.open_ingress("198.51.100.0/24", "gw-cons", 30600,
                              description="PRS consumer-side S2CS/S2DS")

        self.session = yield from self.s2uc.establish_session(
            producer_s2cs=self.producer_s2cs,
            consumer_s2cs=self.consumer_s2cs,
            remote_ip="10.1.1.100",
            target_ports=(5672,),
            num_connections=self.num_connections,
            proxy_type=self.proxy_type,
        )
        self.deployed = True
        return self

    # -- data plane ------------------------------------------------------------
    @property
    def producer_proxy(self):
        if self.session is None:
            raise DeploymentError(f"{self.label}: session not established")
        return self.session.producer_proxy

    @property
    def consumer_proxy(self):
        if self.session is None:
            raise DeploymentError(f"{self.label}: session not established")
        return self.session.consumer_proxy

    def attach_producer(self, host: str, name: str) -> ClientEndpoints:
        """Attach a producer, reserving tunnel connections on both proxies."""
        self._require_deployed()
        try:
            self.producer_proxy.register_connections(self.num_connections)
            self.consumer_proxy.register_connections(self.num_connections)
        except ProxyError as exc:
            raise DeploymentError(
                f"{self.label}: cannot attach producer {name!r}: {exc}") from exc
        return super().attach_producer(host, name)

    def producer_publish_stages(self, host: str, broker: Broker) -> list[Traversable]:
        return self.route_stages(
            [host, "olcf-core", "gw-prod", "gw-cons", "olcf-core", broker.host.name],
            wrappers={"gw-prod": self.producer_proxy, "gw-cons": self.consumer_proxy})

    def producer_delivery_stages(self, broker: Broker, host: str) -> list[Traversable]:
        return self.route_stages(
            [broker.host.name, "olcf-core", "gw-cons", "gw-prod", "olcf-core", host],
            wrappers={"gw-prod": self.producer_proxy, "gw-cons": self.consumer_proxy})

    def consumer_delivery_stages(self, broker: Broker, host: str) -> list[Traversable]:
        # Consumers live inside the facility and use node-exposed access.
        return self.route_stages([broker.host.name, "olcf-core", host])

    def consumer_publish_stages(self, host: str, broker: Broker) -> list[Traversable]:
        return self.route_stages([host, "olcf-core", broker.host.name])

    def connection_tls(self) -> list[TLSProfile]:
        return [MUTUAL_TLS]

    def consumer_connection_tls(self) -> list[TLSProfile]:
        # Plain AMQP inside the facility: no client TLS handshake.
        return []

    # -- feasibility ------------------------------------------------------------
    def deployment_report(self) -> DeploymentReport:
        facility = self.testbed.hpc_facility
        report = DeploymentReport(
            architecture=self.label,
            data_path_hops=self.data_path_hop_count(),
            firewall_rules=facility.firewall.rule_count,
            nodeports_exposed=len(facility.nodeports.allocated_ports("prod-s2cs"))
            + len(facility.nodeports.allocated_ports("cons-s2cs")),
            dns_entries=0,
            # Pre-authorise the gateway endpoints once; per-session setup is
            # automated by the S2UC control flow.
            admin_steps=2,
            user_steps=3,  # certificates + inbound request + outbound request
            security_exposure=2,
            multi_user_scalability=3,
            tls_placement="mTLS on the overlay tunnel; plain AMQP inside facilities",
            nat_traversal="pre-authorised gateway proxies traverse NAT/firewalls",
            notes=[
                f"tunnel proxy: {self.proxy_type} x{self.num_connections} connections",
                "OLCF external access is restricted to HTTPS/443, so custom proxy "
                "ports need extra firewall policy (§6)",
                "hostname-based routing is not supported by SciStream's port/UID "
                "addressing (§6)",
            ],
        )
        if self.proxy_type == "stunnel":
            report.notes.append("stunnel supports at most 16 simultaneous connections")
        return report
