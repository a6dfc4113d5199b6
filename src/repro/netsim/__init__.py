"""Network substrate: links, nodes, topologies, TLS, NAT/firewalls and DNS.

This subpackage models the parts of the OLCF ACE infrastructure that shape
streaming performance (1 Gbps links, per-host processing, TLS placement) and
the parts that shape deployment feasibility (firewall rules, NodePorts,
FQDN routes).
"""

from .connection import Connection, SecuredNode, Traversable
from .dns import DNSRegistry, Endpoint, RouteController
from .link import Link
from .message import Message, MessageFactory
from .nat import (
    NODEPORT_RANGE,
    Firewall,
    FirewallRule,
    NATGateway,
    NATMapping,
    NodePortAllocator,
)
from .network import Network, Route
from .node import NetworkNode, NodeSpec
from .tls import DEFAULT_TLS, MUTUAL_TLS, NULL_TLS, TLSProfile
from . import units

__all__ = [
    "Connection",
    "SecuredNode",
    "Traversable",
    "DNSRegistry",
    "Endpoint",
    "RouteController",
    "Link",
    "Message",
    "MessageFactory",
    "Firewall",
    "FirewallRule",
    "NATGateway",
    "NATMapping",
    "NodePortAllocator",
    "NODEPORT_RANGE",
    "Network",
    "Route",
    "NetworkNode",
    "NodeSpec",
    "TLSProfile",
    "DEFAULT_TLS",
    "MUTUAL_TLS",
    "NULL_TLS",
    "units",
]
