"""Packet-shell pooling stays allocation-free in protocol steady state.

Every delivery is acknowledged with an explicit ACK built from the
pooled ``Packet`` shells, and the receiving NI recycles it once
processed.  Under a ping-pong burst the protocol reaches a steady state
where every shell comes from the free list: after a short warmup,
``pool_stats()['misses']`` must not grow at all.
"""

import pytest

from repro.am.vnet import parallel_vnet
from repro.cluster import reset_global_ids
from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.myrinet.packet import Packet, PacketType, pool_stats, reset_pool_stats
from repro.sim.core import ms


def _pingpong(cluster, rounds):
    """Drive ``rounds`` request/reply cycles; returns when done."""
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    done = []

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def sender(thr):
        for _ in range(rounds):
            yield from ep0.request(thr, 1, None, nbytes=16)
            while True:
                got = yield from ep0.poll(thr, limit=4)
                if got:
                    break
        done.append(1)

    cluster.node(1).start_process("r").spawn_thread(receiver)
    cluster.node(0).start_process("s").spawn_thread(sender)
    sim.run(until=sim.now + ms(10_000), stop=lambda: bool(done))
    assert done, "ping-pong burst did not finish"


def test_explicit_ack_path_also_pools():
    # every delivery sends an explicit pooled ACK
    reset_global_ids()
    cluster = Cluster(ClusterConfig(num_hosts=4))
    _pingpong(cluster, 30)
    reset_pool_stats()
    _pingpong(cluster, 60)
    stats = pool_stats()
    assert stats["misses"] == 0, stats
    assert stats["hits"] > 0


def test_recycled_shell_is_observationally_fresh():
    p = Packet.alloc(0, 1, PacketType.ACK, msg_id=7, channel=3)
    old_xmit = p.xmit_id
    p.recycle()
    before = pool_stats()["hits"]
    q = Packet.alloc(2, 3, PacketType.NACK)
    assert q is p  # LIFO free list: the shell just recycled comes back
    assert q.msg_id == 0 and q.channel == 0
    assert q.xmit_id > old_xmit  # fresh transmission identity
    assert pool_stats()["hits"] == before + 1
