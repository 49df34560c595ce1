"""A parallel I/O subsystem over virtual networks.

Figure 1 lists "high-performance parallel I/O subsystems [12]" (River)
among the user-level software running on Active Messages.  This module
provides that shape: per-node *storage servers* with a simple disk model
(seek + transfer), and a striped-file client that reads and writes stripe
units across many servers concurrently — the bulk AM path carries the
data, so I/O bandwidth aggregates across servers the way River's did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence

from ..am.endpoint import Endpoint
from ..am.vnet import new_endpoint
from ..cluster.builder import Cluster, Node
from ..osim.threads import Thread
from ..sim.core import us

__all__ = ["DiskModel", "StorageServer", "StripedFile", "build_pario"]

_req_ids = itertools.count(1)


@dataclass
class DiskModel:
    """Seek + streaming-transfer disk (paper-era fast-wide SCSI class)."""

    seek_us: float = 8_000.0
    transfer_mb_s: float = 12.0

    def access_ns(self, nbytes: int) -> int:
        return us(self.seek_us) + round(nbytes * 1_000.0 / self.transfer_mb_s)


class StorageServer:
    """One node's storage server: block store behind an endpoint."""

    def __init__(self, node: Node, endpoint: Endpoint, disk: Optional[DiskModel] = None):
        self.node = node
        self.endpoint = endpoint
        self.disk = disk or DiskModel()
        self.blocks: dict[tuple, bytes] = {}
        self.reads = 0
        self.writes = 0
        endpoint._storage_server = self

    # handlers run at the server inside its service thread's poll
    @staticmethod
    def _write_handler(token, key, data):
        server: "StorageServer" = token.endpoint._storage_server
        server.writes += 1
        server.blocks[key] = data
        # disk time is charged to the polling thread
        return server.disk.access_ns(token.nbytes)

    @staticmethod
    def _read_handler(token, key, nbytes, req_id):
        server: "StorageServer" = token.endpoint._storage_server
        server.reads += 1
        data = server.blocks.get(key, b"")
        token.reply(StripedFile._read_reply, req_id, data, nbytes=max(16, nbytes))
        return server.disk.access_ns(nbytes)

    def serve_loop(self, thr: Thread, stop: dict) -> Generator:
        return self.endpoint.serve(thr, stop)


class StripedFile:
    """A file striped round-robin across storage servers (RAID-0 style)."""

    def __init__(self, client_ep: Endpoint, nservers: int, stripe_bytes: int = 65536):
        self.endpoint = client_ep
        self.nservers = nservers
        self.stripe_bytes = stripe_bytes
        self._pending_reads: dict[int, Any] = {}
        client_ep._striped_file = self
        self.bytes_written = 0
        self.bytes_read = 0

    @staticmethod
    def _read_reply(token, req_id, data):
        sf: "StripedFile" = token.endpoint._striped_file
        sf._pending_reads[req_id] = data

    def _stripe_of(self, offset: int) -> tuple[int, tuple]:
        stripe_no = offset // self.stripe_bytes
        server = stripe_no % self.nservers
        return server, ("stripe", stripe_no)

    def write(self, thr: Thread, filename: str, data: bytes) -> Generator:
        """Write ``data`` striped across all servers (generator)."""
        offset = 0
        view = memoryview(bytes(data))
        while offset < len(view):
            server, key = self._stripe_of(offset)
            chunk = bytes(view[offset : offset + self.stripe_bytes])
            yield from self.endpoint.request(
                thr, server, StorageServer._write_handler, (filename, key), chunk,
                nbytes=len(chunk),
            )
            offset += len(chunk)
            self.bytes_written += len(chunk)
        # drain write acknowledgments (library credit replies)
        yield from self._drain(thr)

    def read(self, thr: Thread, filename: str, nbytes: int) -> Generator:
        """Read ``nbytes`` back, issuing all stripe reads concurrently."""
        reqs = []
        offset = 0
        while offset < nbytes:
            server, key = self._stripe_of(offset)
            chunk = min(self.stripe_bytes, nbytes - offset)
            req_id = next(_req_ids)
            reqs.append(req_id)
            yield from self.endpoint.request(
                thr, server, StorageServer._read_handler, (filename, key), chunk, req_id,
                nbytes=64,
            )
            offset += chunk
        parts = []
        for req_id in reqs:
            yield from self.endpoint.spin(thr, lambda: req_id in self._pending_reads,
                                          then_block=True)
            parts.append(self._pending_reads.pop(req_id))
        data = b"".join(parts)
        self.bytes_read += len(data)
        return data

    def _drain(self, thr: Thread) -> Generator:
        ep = self.endpoint
        full = ep.cfg.user_credits
        return ep.spin(thr, lambda: all(ep.credits_available(i) >= full for i in range(self.nservers)),
                       then_block=True)


def build_pario(cluster: Cluster, client_node: int, server_nodes: Sequence[int],
                stripe_bytes: int = 65536, disk: Optional[DiskModel] = None) -> Generator:
    """Wire a striped-file client to storage servers (generator).

    Returns (StripedFile, [StorageServer], stop_dict); each server's
    service loop is already running as an event-driven thread.
    """
    client_ep = yield from new_endpoint(cluster.node(client_node), rngs=cluster.rngs)
    servers = []
    stop = {"flag": False}
    for i, node_id in enumerate(server_nodes):
        ep = yield from new_endpoint(cluster.node(node_id), rngs=cluster.rngs)
        server = StorageServer(cluster.node(node_id), ep, disk=disk)
        servers.append(server)
        client_ep.map(i, ep.name, ep.tag)
        ep.map(0, client_ep.name, client_ep.tag)
        proc = cluster.node(node_id).start_process(f"storage{i}")
        proc.spawn_thread(
            (lambda s: lambda thr: s.serve_loop(thr, stop))(server), name=f"storage{i}"
        )
    sf = StripedFile(client_ep, len(servers), stripe_bytes=stripe_bytes)
    return sf, servers, stop
