"""Virtual network construction.

A virtual network is "a collection of endpoints that refer to one
another, constructed by configuring the individual endpoints, rather than
through some specific group membership interface" (Section 3.1).  These
helpers do that configuration: allocate endpoints through the segment
driver and install the cross-referencing translations — the all-pairs
pattern for parallel programs (traditional virtual node numbers) and the
star pattern for client/server use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from ..sim.rng import RngStreams
from .bundle import Bundle
from .endpoint import Endpoint

if TYPE_CHECKING:
    from ..cluster.builder import Cluster, Node

__all__ = [
    "new_endpoint",
    "parallel_vnet",
    "star_vnet",
    "VirtualNetwork",
]


def new_endpoint(node: "Node", tag: Optional[int] = None, rngs: Optional[RngStreams] = None) -> Generator:
    """Allocate an endpoint on ``node`` (generator; returns Endpoint).

    A random 64-bit protection key is chosen when ``tag`` is None.
    """
    if tag is None:
        rng = (rngs or RngStreams(node.cfg.seed)).stream(f"tags.node{node.node_id}")
        tag = rng.getrandbits(63) | 1
    state = yield from node.driver.alloc_endpoint(tag=tag)
    return Endpoint(node, state)


class VirtualNetwork:
    """A configured collection of endpoints."""

    def __init__(self, endpoints: Sequence[Endpoint]):
        self.endpoints = list(endpoints)

    def __len__(self) -> int:
        return len(self.endpoints)

    def __getitem__(self, i: int) -> Endpoint:
        return self.endpoints[i]

    def bundle(self) -> Bundle:
        return Bundle(self.endpoints)


def parallel_vnet(cluster: "Cluster", nodes: Sequence[int]) -> Generator:
    """All-pairs virtual network over one endpoint per listed node.

    Translation index j on every endpoint names rank j's endpoint, so
    traditional virtual-node-number addressing falls out (Section 3.1).
    Generator; returns :class:`VirtualNetwork`.
    """
    endpoints: list[Endpoint] = []
    for rank, node_id in enumerate(nodes):
        ep = yield from new_endpoint(cluster.node(node_id), rngs=cluster.rngs)
        endpoints.append(ep)
    for ep in endpoints:
        for rank, peer in enumerate(endpoints):
            ep.map(rank, peer.name, peer.tag)
    return VirtualNetwork(endpoints)


def star_vnet(cluster: "Cluster", server_node: int, client_nodes: Sequence[int], shared_server_ep: bool = True) -> Generator:
    """Client/server virtual networks (the Section 6.4 workload shapes).

    With ``shared_server_ep`` (the OneVN configuration) every client maps
    index 0 to one shared server endpoint; otherwise each client gets its
    own dedicated server endpoint (one virtual network per client).
    Generator; returns ``(server_endpoints, client_endpoints)``.
    """
    server = cluster.node(server_node)
    clients: list[Endpoint] = []
    servers: list[Endpoint] = []
    if shared_server_ep:
        sep = yield from new_endpoint(server, rngs=cluster.rngs)
        servers.append(sep)
    for i, cn in enumerate(client_nodes):
        cep = yield from new_endpoint(cluster.node(cn), rngs=cluster.rngs)
        if not shared_server_ep:
            sep = yield from new_endpoint(server, rngs=cluster.rngs)
            servers.append(sep)
        else:
            sep = servers[0]
        cep.map(0, sep.name, sep.tag)
        sep.map(len(clients), cep.name, cep.tag)
        clients.append(cep)
    return servers, clients
