"""Split-C-style one-sided operations on Active Messages.

Section 2: "the communication programming interface supports traditional
parallel libraries, such as ... the Split-C language originally developed
for the CM-5."  Split-C programs use split-phase one-sided *get*/*put*
against a global address space plus barriers; this module provides those
on the AM request/reply layer.  The time-shared workload of Section 6.3
is written against this interface.

A :class:`SplitCContext` is one rank of a Split-C program; ranks share a
:class:`SplitCWorld` whose per-rank "memories" are plain dictionaries
(data values are metadata; sizes drive the simulated network).
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional, Sequence

from ..am.endpoint import Endpoint
from ..am.vnet import parallel_vnet
from ..cluster.builder import Cluster
from ..osim.threads import Thread

__all__ = ["SplitCWorld", "SplitCContext", "build_splitc_world"]


class SplitCContext:
    """One rank: split-phase gets/puts plus sync and barrier."""

    def __init__(self, world: "SplitCWorld", rank: int, endpoint: Endpoint):
        self.world = world
        self.rank = rank
        self.endpoint = endpoint
        #: this rank's slice of the global address space
        self.memory: dict[Any, Any] = {}
        self._pending = 0
        self._barrier_seq = 0
        self._barrier_inbox: set = set()
        self.comm_ns = 0
        self.puts = 0
        self.gets = 0

    @property
    def size(self) -> int:
        return len(self.world.contexts)

    # ------------------------------------------------------------- handlers
    def _put_handler(self, token, key, value):
        self.memory[key] = value

    def _get_handler(self, token, key, requester_nbytes):
        value = self.memory.get(key)
        token.reply(self._get_reply, key, value, nbytes=requester_nbytes)

    def _get_reply(self, token, key, value):
        # runs at the requester: completion of a split-phase get
        owner = token.endpoint._splitc_ctx
        owner._get_results[key] = value
        owner._pending -= 1

    def _barrier_handler(self, token, seq, round_):
        self._barrier_inbox.add((seq, round_))

    # ------------------------------------------------------------ operations
    def put(self, thr: Thread, dest: int, key: Any, value: Any, nbytes: int) -> Generator:
        """Split-phase put: returns once the request is issued."""
        c0 = thr.cpu_ns
        target = self.world.contexts[dest]
        yield from self.endpoint.request(thr, dest, target._put_handler, key, value, nbytes=nbytes)
        self.puts += 1
        self.comm_ns += thr.cpu_ns - c0

    def get(self, thr: Thread, src: int, key: Any, nbytes: int) -> Generator:
        """Split-phase get: issues the fetch; :meth:`sync` completes it."""
        c0 = thr.cpu_ns
        target = self.world.contexts[src]
        self._pending += 1
        yield from self.endpoint.request(thr, src, target._get_handler, key, nbytes, nbytes=16)
        self.gets += 1
        self.comm_ns += thr.cpu_ns - c0

    def sync(self, thr: Thread) -> Generator:
        """Wait for all outstanding split-phase gets to complete.

        Two-phase waiting (spin briefly, then block on the endpoint event
        mask) — the implicit co-scheduling mechanism of Section 6.3.
        """
        c0 = thr.cpu_ns
        yield from self.endpoint.spin(thr, lambda: self._pending <= 0, then_block=True)
        # communication time is CPU time spent communicating; waiting
        # blocked (or descheduled) is not -- which is why the paper sees
        # it stay nearly constant when time-shared (Section 6.3)
        self.comm_ns += thr.cpu_ns - c0
        return dict(self._get_results)

    def barrier(self, thr: Thread) -> Generator:
        """Dissemination barrier over the virtual network."""
        n = self.size
        if n == 1:
            return
        c0 = thr.cpu_ns
        self._barrier_seq += 1
        seq = self._barrier_seq
        rounds = max(1, math.ceil(math.log2(n)))
        for k in range(rounds):
            dist = 1 << k
            dest = (self.rank + dist) % n
            partner = self.world.contexts[dest]
            yield from self.endpoint.request(thr, dest, partner._barrier_handler, seq, k)
            # spin-then-block: lets a co-resident application run while
            # we wait (implicit co-scheduling, Section 6.3)
            yield from self.endpoint.spin(thr, lambda: (seq, k) in self._barrier_inbox,
                                          then_block=True)
            self._barrier_inbox.discard((seq, k))
        self.comm_ns += thr.cpu_ns - c0


class SplitCWorld:
    """All ranks of one Split-C program."""

    def __init__(self, cluster: Cluster, nodes: Sequence[int], contexts: list[SplitCContext]):
        self.cluster = cluster
        self.sim = cluster.sim
        self.nodes = list(nodes)
        self.contexts = contexts

    def spawn(self, main, name: str = "splitc"):
        """One thread per rank running ``main(thr, ctx)``."""
        threads = []
        for rank, node_id in enumerate(self.nodes):
            proc = self.cluster.node(node_id).start_process(f"{name}.r{rank}")
            ctx = self.contexts[rank]
            threads.append(
                proc.spawn_thread((lambda c: lambda thr: main(thr, c))(ctx), name=f"{name}.r{rank}")
            )
        return threads

    def total_comm_ns(self) -> int:
        return sum(c.comm_ns for c in self.contexts)


def build_splitc_world(cluster: Cluster, nodes: Sequence[int]) -> Generator:
    """All-pairs virtual network + one context per rank (generator)."""
    vnet = yield from parallel_vnet(cluster, nodes)
    contexts: list[SplitCContext] = []
    world = SplitCWorld(cluster, nodes, contexts)
    for rank, ep in enumerate(vnet.endpoints):
        ctx = SplitCContext(world, rank, ep)
        ctx._get_results = {}
        ep._splitc_ctx = ctx
        contexts.append(ctx)
    return world
