"""Mini-MPI on Active Messages: the MPICH-on-AM port of Section 2.

The paper runs MPI codes (NPB, ScaLAPACK) over "our port of the standard
MPICH on Active Messages".  This module provides the pieces those codes
need: eager point-to-point send/recv with (source, tag) matching, and the
collectives the NAS benchmarks use (barrier, bcast, reduce, allreduce,
allgather, alltoall, gather), all implemented as message patterns over the
AM request/reply layer so their cost comes out of the simulated network.

Payloads are Python objects used as metadata; the *size* argument is what
travels through the simulated network (fragmentation, credits, DMA).

Usage::

    world = cluster.run_process(build_world(cluster, nodes), "mpi")
    def main(thr, comm):
        yield from comm.barrier(thr)
        ...
    threads = world.spawn(main)
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Generator, Optional, Sequence

from ..am.endpoint import Endpoint
from ..am.vnet import parallel_vnet
from ..cluster.builder import Cluster
from ..nic.collective import COMBINE_OPS
from ..osim.threads import Thread

__all__ = ["ANY", "Comm", "World", "build_world"]

#: wildcard for source/tag matching
ANY = -1


class Comm:
    """One rank's communicator state."""

    def __init__(self, world: "World", rank: int, endpoint: Endpoint):
        self.world = world
        self.rank = rank
        self.endpoint = endpoint
        self._inbox: list[tuple[int, Any, Any, int]] = []  # (src, tag, payload, nbytes)
        #: per-peer sequence numbers: the AM layer's multipath channels may
        #: reorder independent messages, but MPI guarantees per-pair FIFO,
        #: so the library sequences and reorders (as MPICH-on-AM did).
        self._send_seq: dict[int, int] = {}
        self._recv_next: dict[int, int] = {}
        self._out_of_order: dict[int, dict[int, tuple]] = {}
        self._coll_seq = 0
        self.bytes_sent = 0
        self.msgs_sent = 0
        #: time spent inside communication calls (ns), for §6.2's
        #: communication-time instrumentation
        self.comm_ns = 0

    @property
    def size(self) -> int:
        return len(self.world.comms)

    # ------------------------------------------------------------- delivery
    def _deliver(self, token, src: int, seq: int, tag: Any, payload: Any, nbytes: int):
        expected = self._recv_next.get(src, 0)
        if seq != expected:
            self._out_of_order.setdefault(src, {})[seq] = (tag, payload, nbytes)
            return
        self._inbox.append((src, tag, payload, nbytes))
        expected += 1
        stash = self._out_of_order.get(src)
        while stash and expected in stash:
            t, p, n = stash.pop(expected)
            self._inbox.append((src, t, p, n))
            expected += 1
        self._recv_next[src] = expected

    def _match(self, source: int, tag: Any, t0: int) -> Optional[tuple]:
        """:meth:`recv`'s spin predicate; charges the wait since ``t0``."""
        for i, (src, t, payload, nbytes) in enumerate(self._inbox):
            if (source == ANY or src == source) and (tag == ANY or t == tag):
                self.comm_ns += self.world.sim.now - t0
                return self._inbox.pop(i)
        return None

    # --------------------------------------------------------- point-to-point
    def send(self, thr: Thread, dest: int, tag: Any, nbytes: int, payload: Any = None) -> Generator:
        """Eager send of ``nbytes`` to ``dest`` (generator)."""
        if not (0 <= dest < self.size):
            raise ValueError(f"bad destination rank {dest}")
        t0 = self.world.sim.now
        handler = self.world.comms[dest]._deliver
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        yield from self.endpoint.request(thr, dest, handler, self.rank, seq, tag, payload, nbytes, nbytes=nbytes)
        self.msgs_sent += 1
        self.bytes_sent += nbytes
        self.comm_ns += self.world.sim.now - t0

    def recv(self, thr: Thread, source: int = ANY, tag: Any = ANY) -> Generator:
        """Blocking receive; returns (src, tag, payload, nbytes)."""
        return self.endpoint.spin(thr, partial(self._match, source, tag, self.world.sim.now))

    def sendrecv(self, thr: Thread, dest: int, source: int, tag: Any, nbytes: int, payload: Any = None) -> Generator:
        """Exchange: send to ``dest`` while receiving from ``source``."""
        yield from self.send(thr, dest, tag, nbytes, payload)
        result = yield from self.recv(thr, source, tag)
        return result

    # ------------------------------------------------------------ collectives
    def _tag(self, name: str) -> tuple:
        """Per-collective-instance tag (ranks call collectives in order)."""
        self._coll_seq += 1
        return ("__coll", name, self._coll_seq)

    def _offload(self) -> bool:
        """Whether Barrier/Bcast/Reduce offload to the NI, per ClusterConfig.

        ``collective_strategy="host"`` runs the message-pattern
        implementations below; ``firmware`` offloads to the NI collective
        engine.  Firmware trees are per-NI, so a world with co-located
        ranks (two ranks on one node) always falls back to the host trees.
        """
        nodes = self.world.nodes
        return (self.endpoint.cfg.collective_strategy == "firmware"
                and len(set(nodes)) == len(nodes))

    def _nic_collective(self, thr: Thread, op: str, root: int, value: Any = None,
                        op_name: str = "sum", nbytes: int = 8) -> Generator:
        """One firmware collective through this rank's endpoint.

        The operation id is the communicator's collective sequence number
        — synchronized across ranks by MPI's rule that all ranks call
        collectives in the same order — so every NI folds contributions
        of the same logical operation together.
        """
        t0 = self.world.sim.now
        self._coll_seq += 1
        nodes = self.world.nodes
        result = yield from self.endpoint.collective(
            thr, op, self._coll_seq, nodes, nodes[root], value=value,
            op_name=op_name, nbytes=nbytes)
        self.comm_ns += self.world.sim.now - t0
        return result

    def barrier(self, thr: Thread) -> Generator:
        """Barrier: a true synchronization point across all ranks.

        Host strategy runs a dissemination barrier (ceil(log2 n) rounds
        of pairwise messages); firmware offloads one descriptor to the NI
        spanning tree.
        """
        n = self.size
        if n == 1:
            return
        if self._offload():
            yield from self._nic_collective(thr, "barrier", 0)
            return
        tag = self._tag("bar")
        rounds = max(1, math.ceil(math.log2(n)))
        for k in range(rounds):
            dist = 1 << k
            dest = (self.rank + dist) % n
            src = (self.rank - dist) % n
            yield from self.send(thr, dest, (*tag, k), 8)
            yield from self.recv(thr, src, (*tag, k))

    def bcast(self, thr: Thread, root: int, nbytes: int, payload: Any = None) -> Generator:
        """Broadcast from ``root``; returns the payload on every rank.

        Host strategy is a binomial tree; firmware forwards hop-by-hop
        down the NI spanning tree.
        """
        n = self.size
        if n == 1:
            return payload
        if self._offload():
            result = yield from self._nic_collective(
                thr, "bcast", root, value=payload, nbytes=nbytes)
            return result
        tag = self._tag("bcast")
        vrank = (self.rank - root) % n
        if vrank != 0:
            mask = 1
            while mask < n:
                if vrank & mask:
                    src = ((vrank - mask) + root) % n
                    _, _, payload, _ = yield from self.recv(thr, src, tag)
                    break
                mask <<= 1
            mask >>= 1
        else:
            mask = 1
            while mask < n:
                mask <<= 1
            mask >>= 1
        while mask > 0:
            if vrank + mask < n and vrank & (mask - 1) == 0 and not vrank & mask:
                dest = ((vrank + mask) + root) % n
                yield from self.send(thr, dest, tag, nbytes, payload)
            mask >>= 1
        return payload

    def reduce(self, thr: Thread, root: int, value: Any, op, nbytes: int) -> Generator:
        """Reduction to ``root``; returns the result there, None elsewhere.

        ``op`` is either a two-argument callable or the name of an
        integer combine op (:data:`~repro.nic.collective.COMBINE_OPS`).
        Only named ops can offload — the NI firmware combines by name,
        never by shipping host callables — so callable ops always use the
        host binomial tree.
        """
        n = self.size
        if n == 1:
            return value
        if isinstance(op, str):
            if self._offload():
                result = yield from self._nic_collective(
                    thr, "reduce", root, value=value, op_name=op,
                    nbytes=nbytes)
                return result
            op = COMBINE_OPS[op]
        tag = self._tag("reduce")
        vrank = (self.rank - root) % n
        acc = value
        mask = 1
        while mask < n:
            if vrank & mask:
                dest = ((vrank & ~mask) + root) % n
                yield from self.send(thr, dest, tag, nbytes, acc)
                break
            partner = vrank | mask
            if partner < n:
                src = (partner + root) % n
                _, _, other, _ = yield from self.recv(thr, src, tag)
                acc = op(acc, other)
            mask <<= 1
        return acc if vrank == 0 else None

    def allreduce(self, thr: Thread, value: Any, op: Callable[[Any, Any], Any], nbytes: int) -> Generator:
        """Reduce-to-0 then broadcast (handles non-power-of-two sizes)."""
        acc = yield from self.reduce(thr, 0, value, op, nbytes)
        result = yield from self.bcast(thr, 0, nbytes, acc)
        return result

    def allgather(self, thr: Thread, value: Any, nbytes_each: int) -> Generator:
        """Ring allgather; returns the list indexed by rank."""
        n = self.size
        out: list[Any] = [None] * n
        out[self.rank] = value
        if n == 1:
            return out
        tag = self._tag("agather")
        right = (self.rank + 1) % n
        left = (self.rank - 1) % n
        carry_rank, carry = self.rank, value
        for _ in range(n - 1):
            yield from self.send(thr, right, tag, nbytes_each, (carry_rank, carry))
            _, _, (carry_rank, carry), _ = yield from self.recv(thr, left, tag)
            out[carry_rank] = carry
        return out

    def alltoall(self, thr: Thread, values: Sequence[Any], nbytes_each: int) -> Generator:
        """Pairwise-shift all-to-all; returns list indexed by source rank.

        This is the bisection-stressing pattern of FT and IS (Figure 5).
        """
        n = self.size
        if len(values) != n:
            raise ValueError("alltoall needs one value per rank")
        out: list[Any] = [None] * n
        out[self.rank] = values[self.rank]
        if n == 1:
            return out
        tag = self._tag("a2a")
        for shift in range(1, n):
            dest = (self.rank + shift) % n
            src = (self.rank - shift) % n
            yield from self.send(thr, dest, (*tag, shift), nbytes_each, values[dest])
            _, _, payload, _ = yield from self.recv(thr, src, (*tag, shift))
            out[src] = payload
        return out

    def gather(self, thr: Thread, root: int, value: Any, nbytes_each: int) -> Generator:
        """Linear gather to root; returns the list there, None elsewhere."""
        n = self.size
        tag = self._tag("gather")
        if self.rank == root:
            out: list[Any] = [None] * n
            out[root] = value
            for _ in range(n - 1):
                src, _, payload, _ = yield from self.recv(thr, ANY, tag)
                out[src] = payload
            return out
        yield from self.send(thr, root, tag, nbytes_each, value)
        return None


class World:
    """All ranks of one MPI job."""

    def __init__(self, cluster: Cluster, nodes: Sequence[int], comms: list[Comm]):
        self.cluster = cluster
        self.sim = cluster.sim
        self.nodes = list(nodes)
        self.comms = comms

    @property
    def size(self) -> int:
        return len(self.comms)

    def spawn(self, main: Callable[[Thread, Comm], Generator], name: str = "mpi") -> list[Thread]:
        """Start one thread per rank running ``main(thr, comm)``."""
        threads = []
        for rank, node_id in enumerate(self.nodes):
            proc = self.cluster.node(node_id).start_process(f"{name}.r{rank}")
            comm = self.comms[rank]
            threads.append(
                proc.spawn_thread(
                    (lambda c: lambda thr: main(thr, c))(comm), name=f"{name}.r{rank}"
                )
            )
        return threads

    def total_comm_ns(self) -> int:
        return sum(c.comm_ns for c in self.comms)

    def total_bytes(self) -> int:
        return sum(c.bytes_sent for c in self.comms)


def build_world(cluster: Cluster, nodes: Sequence[int]) -> Generator:
    """Create an all-pairs virtual network and one Comm per rank.

    Generator (run with ``cluster.run_process``); returns :class:`World`.
    """
    vnet = yield from parallel_vnet(cluster, nodes)
    comms: list[Comm] = []
    world = World(cluster, nodes, comms)
    for rank, ep in enumerate(vnet.endpoints):
        comms.append(Comm(world, rank, ep))
    return world
