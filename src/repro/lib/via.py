"""A Virtual Interface Architecture (VIA) layer over virtual networks.

The paper's conclusions: "We are currently working on applying these
techniques for network virtualization to an implementation of the Virtual
Interface Architecture" — managing a large logical space of VIs with
finite interface resources, exactly as endpoints are managed here.

This module provides the VIA shapes of Section 7 on top of the AM-II
endpoint layer:

* a **VI** is a *connection*: a send/receive queue pair bound to exactly
  one remote VI (contrast with endpoints, which address many peers
  through a translation table — the paper notes a parallel program needs
  n^2 VIs where a virtual network needs n endpoints);
* **completion queues**: collections of VIs may share a CQ, giving one
  central place to poll or block;
* reliability rides the underlying virtual-network transport, so the
  VIA "reliable delivery" mode comes for free — with endpoint paging
  managing the large VI space against finite NI frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from ..am.bundle import Bundle
from ..am.endpoint import Endpoint, poll_until
from ..am.vnet import new_endpoint
from ..cluster.builder import Cluster, Node
from ..osim.threads import Thread

__all__ = ["Completion", "CompletionQueue", "Vi", "create_vi", "connect_vis", "full_mesh_vis"]

_vi_ids = itertools.count(1)

#: completion kinds
SEND_DONE = "send_done"
RECV = "recv"
ERROR = "error"


@dataclass
class Completion:
    """One entry popped from a completion queue."""

    vi: "Vi"
    kind: str
    context: Any = None
    nbytes: int = 0
    payload: Any = None


class CompletionQueue:
    """A shared completion queue: the central polling point (Section 7)."""

    def __init__(self, node: Node, name: str = "cq"):
        self.node = node
        self.name = name
        self._entries: list[Completion] = []
        #: the member VIs' endpoints, serviced together by poll and wait
        self._bundle = Bundle()

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> None:
        self._entries.append(completion)

    def _pop(self) -> Optional[Completion]:
        return self._entries.pop(0) if self._entries else None

    def poll(self, thr: Thread) -> Generator:
        """Non-blocking pop (generator; returns Completion or None).

        Also services the member VIs' endpoints so completions surface.
        """
        yield from self._bundle.poll_all(thr)
        return self._pop()

    def wait(self, thr: Thread, timeout_ns: Optional[int] = None) -> Generator:
        """Blocking pop (generator; returns Completion or None on timeout).

        Between empty sweeps it waits (spin, then block) until a member
        endpoint has work or the deadline passes.
        """
        sim = self.node.sim
        deadline = None if timeout_ns is None else sim.now + timeout_ns
        idle = lambda: self._bundle.wait_any(  # noqa: E731
            thr, None if deadline is None else max(1, deadline - sim.now))
        return poll_until(thr, self._pop, self._bundle, idle=idle, deadline=deadline)

    def register(self, vi: "Vi") -> None:
        if vi.endpoint not in self._bundle.endpoints:
            self._bundle.add(vi.endpoint)


class Vi:
    """One Virtual Interface: a connected send/receive queue pair."""

    def __init__(self, node: Node, endpoint: Endpoint, cq: CompletionQueue):
        self.node = node
        self.endpoint = endpoint
        self.cq = cq
        self.vi_id = next(_vi_ids)
        self.peer: Optional[tuple] = None  # (name, key) of the remote VI
        self.connected = False
        self.sends_posted = 0
        self.recvs_completed = 0
        cq.register(self)
        endpoint.undeliverable_handler = self._undeliverable
        # completions surface from receipts and returned messages alike
        endpoint.set_event_mask({"recv", "returned"})

    # ---------------------------------------------------------- connection
    def connect(self, peer_name: tuple[int, int], peer_key: int) -> None:
        """Bind this VI to its one remote VI (connection semantics)."""
        if self.connected:
            raise RuntimeError(f"VI {self.vi_id} already connected")
        self.endpoint.map(0, peer_name, peer_key)
        self.peer = (peer_name, peer_key)
        self.connected = True

    # ------------------------------------------------------------- transfers
    def _recv_handler(self, token, context, payload):
        self.recvs_completed += 1
        self.cq.push(Completion(self, RECV, context=context, nbytes=token.nbytes, payload=payload))

    def _send_done(self, token, context):
        self.cq.push(Completion(self, SEND_DONE, context=context))

    def _undeliverable(self, msg, reason):
        self.cq.push(Completion(self, ERROR, context=reason))

    def post_send(self, thr: Thread, nbytes: int, context: Any = None, payload: Any = None) -> Generator:
        """Post a send descriptor (generator); completion lands in the CQ.

        Under VIA's reliable-delivery mode the completion means the data
        reached the remote VI — here that is the remote library's receipt
        acknowledgment (a reply), so the guarantee is end-to-end.
        """
        if not self.connected:
            raise RuntimeError(f"VI {self.vi_id} not connected")
        self.sends_posted += 1
        remote_handler = self._peer_recv_handler()
        yield from self.endpoint.request(
            thr, 0, remote_handler, context, payload, nbytes=nbytes
        )

    def _peer_recv_handler(self):
        # In-process rendezvous: the remote VI registered itself by name.
        peer_vi = _VI_DIRECTORY.get(self.peer[0])
        if peer_vi is None:
            # Send into the void: the transport's return-to-sender error
            # model will surface an ERROR completion.
            return lambda token, context, payload: None

        def handler(token, context, payload):
            peer_vi._recv_handler(token, context, payload)
            token.reply(peer_vi._remote_send_done, context)

        return handler

    def _remote_send_done(self, token, context):
        # runs at the *sender* when the receipt reply arrives
        vi = _VI_DIRECTORY.get(token.endpoint.name)
        if vi is not None:
            vi._send_done(token, context)


#: name -> Vi rendezvous (one simulated address space)
_VI_DIRECTORY: dict = {}


def create_vi(node: Node, cq: CompletionQueue, cluster: Cluster) -> Generator:
    """Allocate a VI on ``node`` attached to ``cq`` (generator; returns Vi)."""
    ep = yield from new_endpoint(node, rngs=cluster.rngs)
    vi = Vi(node, ep, cq)
    _VI_DIRECTORY[ep.name] = vi
    return vi


def connect_vis(a: Vi, b: Vi) -> None:
    """Connect two VIs to each other (the rendezvous is out of band)."""
    a.connect(b.endpoint.name, b.endpoint.tag)
    b.connect(a.endpoint.name, a.endpoint.tag)


def full_mesh_vis(cluster: Cluster, nodes: Sequence[int]) -> Generator:
    """Fully connect ``n`` nodes with VIA semantics: n*(n-1) VIs.

    Illustrates the provisioning contrast of Section 7: a virtual network
    needs one endpoint per node; VIA connections need a VI per peer —
    which is exactly why managing a large VI space against finite frames
    needs the paper's virtualization machinery.
    Generator; returns (cqs_by_node, vis[i][j]).
    """
    n = len(nodes)
    cqs = {}
    vis: dict[int, dict[int, Vi]] = {i: {} for i in range(n)}
    for i, node_id in enumerate(nodes):
        cqs[i] = CompletionQueue(cluster.node(node_id), name=f"cq{i}")
    for i, node_id in enumerate(nodes):
        for j in range(n):
            if i == j:
                continue
            vi = yield from create_vi(cluster.node(node_id), cqs[i], cluster)
            vis[i][j] = vi
    for i in range(n):
        for j in range(i + 1, n):
            connect_vis(vis[i][j], vis[j][i])
    return cqs, vis
