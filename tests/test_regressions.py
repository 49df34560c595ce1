"""Regression tests for specific defects found and fixed during development.

Each test pins a failure mode that once existed, so it cannot return.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.myrinet import Network, Packet, PacketType
from repro.nic import DriverOp, EndpointState, Message, MessageState, MsgKind, Nic
from repro.sim import Event, Simulator, ms, us


def test_acks_bypass_a_data_backlog():
    """Regression: acknowledgments once queued behind backpressured data
    floods, exceeding any retransmission timer and melting the system
    down.  Protocol packets must dispatch ahead of queued data."""
    cfg = ClusterConfig(num_hosts=4)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(4)]
    nic = nics[0]
    # stuff the data FIFO
    for i in range(cfg.ni_rx_fifo_packets):
        nic._on_wire_rx(Packet(src_nic=1, dst_nic=0, kind=PacketType.DATA, msg_id=1000 + i))
    # an ACK arriving now must not wait behind that backlog
    result = nic._on_wire_rx(Packet(src_nic=1, dst_nic=0, kind=PacketType.ACK, msg_id=5))
    assert result is None                 # accepted immediately
    assert len(nic._rx_proto_q) == 1      # on the fast path


def test_cpu_lease_released_by_finished_thread():
    """Regression: a thread whose body ended kept the CPU lease, stalling
    other runnable threads until quantum expiry."""
    from repro.hw import Cpu
    from repro.osim import Thread

    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=10_000_000, context_switch_ns=0)
    ends = {}

    def quick(thr):
        yield from thr.compute(1_000)
        ends["quick"] = sim.now

    def follower(thr):
        yield from thr.sleep(500)  # arrives second
        yield from thr.compute(1_000)
        ends["follower"] = sim.now

    Thread(sim, cpu, quick)
    Thread(sim, cpu, follower)
    sim.run()
    # follower ran promptly after quick finished, not a quantum later
    assert ends["follower"] <= 5_000


def test_kernel_priority_preempts_polling_thread():
    """Regression: the remap kernel thread starved behind a polling user
    thread's lease, collapsing ST-8 to ~1% throughput."""
    from repro.hw import Cpu
    from repro.osim import Thread

    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=10_000_000, context_switch_ns=10_000)
    progress = {}

    def poller(thr):
        # a tight user-level poll loop that never blocks
        for _ in range(20_000):
            yield from thr.compute(800)

    def kernel_work():
        yield from cpu.compute(us(500), owner="kernel", priority=1)
        progress["done"] = sim.now

    Thread(sim, cpu, poller)
    sim.spawn(kernel_work())
    sim.run(until=ms(16))
    # kernel work completed within a couple of slice lengths, not after
    # the poller's multi-millisecond lease
    assert progress.get("done", 10**12) < ms(4)


def test_wrr_blocked_waiters_keep_their_place():
    """Regression: a just-served endpoint re-entered the channel-waiter
    queue ahead of endpoints that never ran, starving them entirely."""
    cfg = ClusterConfig(num_hosts=4, wrr_max_msgs=8)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(4)]

    def add(nic, ep_id, tag, frame):
        ep = EndpointState(nic.nic_id, ep_id, send_ring_depth=cfg.send_ring_depth,
                           recv_queue_depth=cfg.recv_queue_depth, tag=tag,
                           table=nic.table)
        nic.driver_request(DriverOp("alloc", ep, Event(sim)))
        nic.driver_request(DriverOp("load", ep, Event(sim), frame=frame))
        return ep

    a1, a2 = add(nics[0], 1, 10, 0), add(nics[0], 2, 11, 1)
    b1, b2 = add(nics[1], 1, 20, 0), add(nics[1], 2, 21, 1)
    sim.run(until=ms(1))
    m1 = [Message(src_node=0, src_ep=1, dst_node=1, dst_ep=1, key=20, kind=MsgKind.REQUEST) for _ in range(40)]
    m2 = [Message(src_node=0, src_ep=2, dst_node=1, dst_ep=2, key=21, kind=MsgKind.REQUEST) for _ in range(40)]
    for x, y in zip(m1, m2):
        nics[0].host_enqueue_send(a1, x)
        nics[0].host_enqueue_send(a2, y)

    def drain():
        while True:
            nics[1].host_poll_recv(b1)
            nics[1].host_poll_recv(b2)
            yield sim.timeout(us(5))

    sim.spawn(drain())
    sim.run(until=ms(1) + us(300))
    d1 = sum(1 for m in m1 if m.state is MessageState.DELIVERED)
    d2 = sum(1 for m in m2 if m.state is MessageState.DELIVERED)
    assert d1 > 0 and d2 > 0  # no starvation
    assert abs(d1 - d2) <= 2 * cfg.wrr_max_msgs


def test_mpi_orders_despite_multipath_channels():
    """Regression: 32 multipath channels reorder AM requests; MPI must
    still deliver per-pair FIFO (library sequencing)."""
    from repro.lib.mpi import build_world

    cluster = Cluster(ClusterConfig(num_hosts=2))
    world = cluster.run_process(build_world(cluster, [0, 1]), "mpi")

    def main(thr, comm):
        if comm.rank == 0:
            for i in range(40):
                yield from comm.send(thr, 1, "seq", 8, payload=i)
            return None
        got = []
        for _ in range(40):
            _, _, payload, _ = yield from comm.recv(thr, 0, "seq")
            got.append(payload)
        return got

    threads = world.spawn(main)
    cluster.run(until=cluster.sim.now + ms(3_000))
    assert threads[1].finished
    assert threads[1].result == list(range(40))


def test_bulk_timer_does_not_duplicate_healthy_transfer():
    """Regression: retransmission timers shorter than the staging DMAs
    duplicated perfectly healthy bulk packets."""
    cfg = ClusterConfig(num_hosts=4)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(4)]

    def add(nic, tag):
        ep = EndpointState(nic.nic_id, 1, send_ring_depth=cfg.send_ring_depth,
                           recv_queue_depth=cfg.recv_queue_depth, tag=tag,
                           table=nic.table)
        nic.driver_request(DriverOp("alloc", ep, Event(sim)))
        nic.driver_request(DriverOp("load", ep, Event(sim), frame=0))
        return ep

    a, b = add(nics[0], 10), add(nics[1], 20)
    sim.run(until=ms(1))
    msgs = [Message(src_node=0, src_ep=1, dst_node=1, dst_ep=1, key=20,
                    kind=MsgKind.REQUEST, payload_bytes=8192, is_bulk=True)
            for _ in range(16)]
    for m in msgs:
        nics[0].host_enqueue_send(a, m)

    def drain():
        while True:
            nics[1].host_poll_recv(b)
            yield sim.timeout(us(50))

    sim.spawn(drain())
    sim.run(until=ms(60))
    assert all(m.state is MessageState.DELIVERED for m in msgs)
    assert nics[0].stats.retransmissions == 0
    assert nics[1].stats.dup_reacks == 0
