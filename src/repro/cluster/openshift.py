"""A minimal OpenShift/Kubernetes platform model (Olivine).

Only the platform behaviours that shape the paper's three deployments are
modelled:

* a cluster of worker nodes (the DSNs) onto which *pods* are scheduled,
  with **pod anti-affinity** so the three RabbitMQ server pods land on three
  different DSNs (§4.3),
* **NodePort services** that expose a pod's ports on its host's IP in the
  30000–32767 range (used by DTS and by the PRS proof-of-concept),
* an **ingress controller** (running on dedicated ingress nodes, not on the
  DSNs) that terminates FQDN-based routes for MSS, and
* a **namespace**/resource-request bookkeeping layer so deployments can be
  validated (CPU/memory requests vs. node capacity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..simkit import Environment, Monitor, Resource
from ..netsim import NodePortAllocator
from ..netsim.dns import Endpoint, RouteController
from ..netsim.message import Message
from ..netsim.node import NetworkNode
from ..netsim.tls import NULL_TLS, TLSProfile

__all__ = ["PodSpec", "Pod", "NodePortService", "IngressController", "OpenShiftCluster"]


@dataclass(frozen=True)
class PodSpec:
    """Resource requests and image metadata for one pod."""

    name: str
    app: str
    cpus: float = 1.0
    memory_bytes: float = 1024 ** 3
    ports: tuple[int, ...] = ()
    #: Pods of the same anti-affinity group never share a node (§4.3).
    anti_affinity_group: str = ""


@dataclass
class Pod:
    """A scheduled pod bound to a worker node."""

    spec: PodSpec
    node: NetworkNode
    namespace: str
    phase: str = "Running"

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class NodePortService:
    """A Service of type NodePort exposing pod ports on the host IP."""

    name: str
    pod: Pod
    port_map: dict[int, int] = field(default_factory=dict)  # nodePort -> targetPort

    def endpoint(self, target_port: int, scheme: str = "amqp") -> Endpoint:
        for node_port, target in self.port_map.items():
            if target == target_port:
                return Endpoint(self.pod.node.name, node_port, scheme)
        raise KeyError(f"no NodePort mapping for target port {target_port}")

    @property
    def node_ports(self) -> list[int]:
        return sorted(self.port_map)


class IngressController:
    """HAProxy-style OpenShift router terminating FQDN routes.

    The ingress is a :class:`Traversable` data-path element: every MSS
    message crosses it, paying its per-message routing cost and TLS
    termination cost, subject to its bounded concurrency — this is the main
    source of the MSS overhead and of its scaling collapse at high consumer
    counts.
    """

    def __init__(self, env: Environment, name: str, host: NetworkNode, *,
                 tls: TLSProfile = NULL_TLS,
                 route_controller: Optional[RouteController] = None,
                 max_inflight: int = 64) -> None:
        self.env = env
        self.name = name
        self.host = host
        self.tls = tls
        self.route_controller = route_controller or RouteController(f"{name}-routes")
        self.monitor = Monitor(f"ingress:{name}")
        # Per-message instruments, resolved by name exactly once.
        self._messages_counter = self.monitor.counter("messages")
        self._inflight = Resource(env, capacity=max_inflight)

    def add_route(self, hostname: str, backends: list[Endpoint]) -> None:
        self.route_controller.add_route(hostname, backends)

    def traverse(self, message: Message) -> Generator:
        with self._inflight.request() as slot:
            yield slot
            yield from self.host.traverse(message, tls=self.tls)
        self._messages_counter.value += float(message.multiplicity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<IngressController {self.name} host={self.host.name}>"


class OpenShiftCluster:
    """The Olivine OpenShift cluster hosting the streaming service."""

    def __init__(self, env: Environment, name: str, *,
                 worker_nodes: list[NetworkNode],
                 ingress: Optional[IngressController] = None,
                 nodeports: Optional[NodePortAllocator] = None) -> None:
        if not worker_nodes:
            raise ValueError("an OpenShift cluster needs at least one worker node")
        self.env = env
        self.name = name
        self.worker_nodes = list(worker_nodes)
        self.ingress = ingress
        self.nodeports = nodeports or NodePortAllocator()
        self.namespaces: dict[str, list[Pod]] = {}
        self.services: dict[str, NodePortService] = {}
        self.monitor = Monitor(f"openshift:{name}")
        #: CPU requests already granted per node name.
        self._cpu_requests: dict[str, float] = {n.name: 0.0 for n in worker_nodes}
        self._memory_requests: dict[str, float] = {n.name: 0.0 for n in worker_nodes}

    # -- scheduling -----------------------------------------------------------
    def create_namespace(self, namespace: str) -> None:
        self.namespaces.setdefault(namespace, [])

    def _anti_affinity_conflict(self, namespace: str, spec: PodSpec,
                                node: NetworkNode) -> bool:
        if not spec.anti_affinity_group:
            return False
        for pod in self.namespaces.get(namespace, []):
            if (pod.spec.anti_affinity_group == spec.anti_affinity_group
                    and pod.node.name == node.name):
                return True
        return False

    def _fits(self, spec: PodSpec, node: NetworkNode) -> bool:
        cpu_ok = self._cpu_requests[node.name] + spec.cpus <= node.spec.cores
        mem_ok = (self._memory_requests[node.name] + spec.memory_bytes
                  <= node.spec.memory_bytes)
        return cpu_ok and mem_ok

    def schedule_pod(self, namespace: str, spec: PodSpec) -> Pod:
        """Place a pod on a worker node honouring requests and anti-affinity."""
        self.create_namespace(namespace)
        for node in self.worker_nodes:
            if self._anti_affinity_conflict(namespace, spec, node):
                continue
            if not self._fits(spec, node):
                continue
            pod = Pod(spec=spec, node=node, namespace=namespace)
            self.namespaces[namespace].append(pod)
            self._cpu_requests[node.name] += spec.cpus
            self._memory_requests[node.name] += spec.memory_bytes
            self.monitor.count("pods_scheduled")
            return pod
        raise RuntimeError(
            f"unschedulable pod {spec.name!r}: no node satisfies requests "
            f"and anti-affinity in namespace {namespace!r}")

    def pods(self, namespace: str) -> list[Pod]:
        return list(self.namespaces.get(namespace, []))

    # -- services -----------------------------------------------------------
    def expose_nodeport(self, service_name: str, pod: Pod,
                        target_ports: list[int], *,
                        preferred_ports: Optional[list[int]] = None) -> NodePortService:
        """Create a NodePort service for a pod's ports."""
        if service_name in self.services:
            raise ValueError(f"service {service_name!r} already exists")
        port_map: dict[int, int] = {}
        preferred = list(preferred_ports or [])
        for index, target in enumerate(target_ports):
            want = preferred[index] if index < len(preferred) else None
            node_port = self.nodeports.allocate(service_name, preferred=want)
            port_map[node_port] = target
        service = NodePortService(service_name, pod, port_map)
        self.services[service_name] = service
        self.monitor.count("nodeport_services")
        return service

    def add_ingress_route(self, hostname: str, backends: list[Endpoint]) -> None:
        if self.ingress is None:
            raise RuntimeError("this cluster has no ingress controller")
        self.ingress.add_route(hostname, backends)

    # -- reporting -----------------------------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "workers": [n.name for n in self.worker_nodes],
            "namespaces": {ns: [p.name for p in pods]
                           for ns, pods in self.namespaces.items()},
            "services": {name: svc.node_ports for name, svc in self.services.items()},
            "has_ingress": self.ingress is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        # Integer counts are order-insensitive; cosmetic repr only.
        total = sum(len(p) for p in self.namespaces.values())  # repro: allow[D004]
        return f"<OpenShiftCluster {self.name} workers={len(self.worker_nodes)} pods={total}>"
