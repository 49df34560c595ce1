"""Connection-oriented byte streams over Active Messages.

Figure 1 shows standard sockets riding the virtual-network substrate ("by
supporting a subset of the interface within Solaris, standard sockets,
network file systems, and remote-procedure call packages can leverage the
performance of the network").  This module provides that stream
abstraction: listen/connect rendezvous, ordered byte delivery with
windowed flow control, and graceful close — all as AM request traffic on
the endpoints underneath (cf. the SHRIMP stream-sockets work cited as
[13]).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Generator, Optional

from ..am.endpoint import Endpoint
from ..am.names import NameService
from ..am.vnet import new_endpoint
from ..cluster.builder import Cluster, Node
from ..osim.threads import Thread

__all__ = ["StreamSocket", "Listener", "stream_connect", "stream_listen"]

_conn_ids = itertools.count(1)

#: stream segment payload limit (one AM request per segment)
SEGMENT_BYTES = 4096
#: receive window, in segments, advertised to the peer
WINDOW_SEGMENTS = 8
#: library back-off between empty polls while a send window is closed
BACKOFF_NS = 2_000


class StreamSocket:
    """One end of an established byte stream."""

    def __init__(self, endpoint: Endpoint, conn_id: int):
        self.endpoint = endpoint
        self.conn_id = conn_id
        #: reassembled in-order payload chunks awaiting read
        self._rx: Deque[bytes] = deque()
        self._rx_bytes = 0
        self._next_rx_seq = 0
        self._ooo: dict[int, tuple] = {}
        self._tx_seq = 0
        #: segments in flight, bounded by the peer's window
        self._inflight = 0
        self.peer_closed = False
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        endpoint._stream_socket = self

    # ------------------------------------------------------------- handlers
    @staticmethod
    def _segment_handler(token, conn_id, seq, chunk, fin):
        sock: "StreamSocket" = token.endpoint._stream_socket
        if seq == sock._next_rx_seq:
            sock._accept(chunk, fin)
            sock._next_rx_seq += 1
            while sock._next_rx_seq in sock._ooo:
                c, f = sock._ooo.pop(sock._next_rx_seq)
                sock._accept(c, f)
                sock._next_rx_seq += 1
        else:
            sock._ooo[seq] = (chunk, fin)
        # explicit credit reply: releases one unit of the send window
        token.reply(StreamSocket._credit_handler)

    def _accept(self, chunk, fin):
        if fin:
            self.peer_closed = True
        elif chunk:
            self._rx.append(chunk)
            self._rx_bytes += len(chunk)
            self.bytes_received += len(chunk)

    @staticmethod
    def _credit_handler(token):
        sock: "StreamSocket" = token.endpoint._stream_socket
        sock._inflight -= 1

    # ------------------------------------------------------------------ API
    def send(self, thr: Thread, data: bytes) -> Generator:
        """Send bytes in order (generator; blocks on the send window)."""
        if self.closed:
            raise RuntimeError("send on closed stream")
        view = memoryview(bytes(data))
        offset = 0
        while offset < len(view):
            chunk = bytes(view[offset : offset + SEGMENT_BYTES])
            offset += len(chunk)
            yield from self._send_segment(thr, chunk, fin=False)
            self.bytes_sent += len(chunk)

    def _send_segment(self, thr: Thread, chunk: bytes, fin: bool) -> Generator:
        yield from self.endpoint.spin(thr, lambda: self._inflight < WINDOW_SEGMENTS,
                                      period=BACKOFF_NS)
        self._inflight += 1
        seq = self._tx_seq
        self._tx_seq += 1
        yield from self.endpoint.request(
            thr, 0, StreamSocket._segment_handler, self.conn_id, seq, chunk, fin,
            nbytes=max(16, len(chunk)),
        )

    def recv(self, thr: Thread, max_bytes: int) -> Generator:
        """Receive up to ``max_bytes`` (generator; b"" means peer closed)."""
        yield from self.endpoint.spin(thr, lambda: self._rx or self.peer_closed, then_block=True)
        if not self._rx:
            return b""
        chunk = self._rx.popleft()
        if len(chunk) > max_bytes:
            self._rx.appendleft(chunk[max_bytes:])
            chunk = chunk[:max_bytes]
        self._rx_bytes -= len(chunk)
        return chunk

    def recv_exact(self, thr: Thread, nbytes: int) -> Generator:
        """Receive exactly ``nbytes`` (generator; raises on early close)."""
        parts = []
        got = 0
        while got < nbytes:
            chunk = yield from self.recv(thr, nbytes - got)
            if not chunk:
                raise EOFError(f"stream closed after {got}/{nbytes} bytes")
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    def close(self, thr: Thread, linger_ns: int = 50_000_000) -> Generator:
        """Half-close: signal FIN, then flush for at most ``linger_ns``.

        Bounded like SO_LINGER: if the peer has stopped servicing its
        endpoint, close returns anyway (the transport keeps retrying
        underneath until its own dead timeout).
        """
        if self.closed:
            return
        self.closed = True
        yield from self._send_segment(thr, b"", fin=True)
        yield from self.endpoint.spin(thr, lambda: self._inflight <= 0, period=10_000,
                                      deadline=self.endpoint.node.sim.now + linger_ns)


class Listener:
    """A passive endpoint accepting stream connections."""

    def __init__(self, node: Node, endpoint: Endpoint, label: str, names: NameService):
        self.node = node
        self.endpoint = endpoint
        self.label = label
        self.names = names
        self._pending: Deque[tuple] = deque()
        endpoint._stream_listener = self
        names.register(label, endpoint.name, endpoint.tag)

    @staticmethod
    def _syn_handler(token, conn_id, client_name, client_key):
        listener: "Listener" = token.endpoint._stream_listener
        listener._pending.append((conn_id, client_name, client_key))

    def accept(self, thr: Thread, cluster: Cluster, timeout_ns: Optional[int] = None) -> Generator:
        """Wait for a connection; returns a new StreamSocket (or None)."""
        deadline = None if timeout_ns is None else self.node.sim.now + timeout_ns
        if not (yield from self.endpoint.spin(thr, lambda: self._pending, deadline=deadline,
                                              then_block=True)):
            return None
        conn_id, client_name, client_key = self._pending.popleft()
        # dedicated endpoint per accepted connection (its own virtual net)
        ep = yield from new_endpoint(self.node, rngs=cluster.rngs)
        ep.map(0, client_name, client_key)
        sock = StreamSocket(ep, conn_id)
        # tell the client which endpoint to talk to, through a temporary
        # translation back to the connecting endpoint
        tmp_index = 1 + (conn_id % 4096)
        self.endpoint.map(tmp_index, client_name, client_key)
        yield from self.endpoint.request(
            thr, tmp_index, _synack_handler, conn_id, ep.name, ep.tag
        )
        # wait for the handshake credit before retiring the translation
        yield from self.endpoint.spin(
            thr, lambda: self.endpoint.credits_available(tmp_index) >= self.endpoint.cfg.user_credits,
            period=BACKOFF_NS)
        self.endpoint.unmap(tmp_index)
        return sock


def _synack_handler(token, conn_id, server_ep_name, server_key):
    client_sock: "StreamSocket" = token.endpoint._stream_socket
    client_sock.endpoint.map(0, server_ep_name, server_key)
    client_sock._established = True


def stream_listen(cluster: Cluster, node_id: int, label: str, names: NameService) -> Generator:
    """Create a listener registered under ``label`` (generator)."""
    node = cluster.node(node_id)
    ep = yield from new_endpoint(node, rngs=cluster.rngs)
    return Listener(node, ep, label, names)


def stream_connect(thr: Thread, cluster: Cluster, node_id: int, label: str, names: NameService) -> Generator:
    """Connect to ``label`` (generator run in a thread; returns StreamSocket)."""
    looked_up = names.lookup(label)
    if looked_up is None:
        raise ConnectionError(f"no listener registered as {label!r}")
    listener_name, listener_key = looked_up
    node = cluster.node(node_id)
    ep = yield from new_endpoint(node, rngs=cluster.rngs)
    conn_id = next(_conn_ids)
    sock = StreamSocket(ep, conn_id)
    sock._established = False
    # temporary mapping to the listener for the handshake
    ep.map(0, listener_name, listener_key)
    yield from ep.request(thr, 0, Listener._syn_handler, conn_id, ep.name, ep.tag)
    yield from ep.spin(thr, lambda: sock._established, then_block=True)
    return sock
