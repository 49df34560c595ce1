"""Deeper NI firmware tests: WRR loitering, driver interleave, staging bounds."""

import pytest

from repro.cluster import ClusterConfig
from repro.myrinet import Network
from repro.nic import DriverOp, EndpointState, Message, MessageState, MsgKind, Nic
from repro.sim import Event, Simulator, ms, us


def build(n=4, **kw):
    cfg = ClusterConfig(num_hosts=n, **kw)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(n)]
    return sim, cfg, net, nics


def add_ep(sim, nic, cfg, ep_id, tag, frame=None):
    ep = EndpointState(nic.nic_id, ep_id, send_ring_depth=cfg.send_ring_depth,
                       recv_queue_depth=cfg.recv_queue_depth, tag=tag,
                       table=nic.table)
    nic.driver_request(DriverOp("alloc", ep, Event(sim)))
    nic.driver_request(DriverOp("load", ep, Event(sim),
                                frame=frame if frame is not None else nic.free_frame_index()))
    return ep


def mk(src, dst, key, nbytes=16, bulk=False):
    return Message(src_node=src[0], src_ep=src[1], dst_node=dst[0], dst_ep=dst[1],
                   key=key, kind=MsgKind.REQUEST, payload_bytes=nbytes, is_bulk=bulk)


def test_loiter_bounds_burst_length():
    """With a loiter budget of 4, one endpoint's run length is bounded."""
    sim, cfg, net, nics = build(wrr_max_msgs=4)
    a1 = add_ep(sim, nics[0], cfg, 1, 10, frame=0)
    a2 = add_ep(sim, nics[0], cfg, 2, 11, frame=1)
    b1 = add_ep(sim, nics[1], cfg, 1, 20, frame=0)
    b2 = add_ep(sim, nics[1], cfg, 2, 21, frame=1)
    sim.run(until=ms(1))
    arrivals = []

    m1 = [mk((0, 1), (1, 1), 20) for _ in range(24)]
    m2 = [mk((0, 2), (1, 2), 21) for _ in range(24)]
    for x, y in zip(m1, m2):
        nics[0].host_enqueue_send(a1, x)
        nics[0].host_enqueue_send(a2, y)

    def drain():
        while True:
            got = nics[1].host_poll_recv(b1)
            if got:
                arrivals.append(1)
            got = nics[1].host_poll_recv(b2)
            if got:
                arrivals.append(2)
            yield sim.timeout(us(3))

    sim.spawn(drain())
    sim.run(until=ms(1) + us(800))
    assert len(arrivals) == 48
    # no run of a single endpoint longer than ~2x the loiter budget
    longest, cur, prev = 1, 1, arrivals[0]
    for v in arrivals[1:]:
        cur = cur + 1 if v == prev else 1
        prev = v
        longest = max(longest, cur)
    assert longest <= 10


def test_driver_op_progresses_under_receive_flood():
    """Driver endpoint service is interleaved (§5.3): a load completes
    even while another node floods this NI with traffic."""
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = add_ep(sim, nics[1], cfg, 1, 20)
    sim.run(until=ms(1))

    # keep a continuous flood into b (refilled as messages resolve)
    outstanding = []

    def feeder():
        while sim.now < ms(30):
            while len([m for m in outstanding if m.state is MessageState.PENDING or m.state is MessageState.BOUND]) < 32:
                m = mk((0, 1), (1, 1), 20)
                if not nics[0].host_enqueue_send(a, m):
                    break
                outstanding.append(m)
            nics[1].host_poll_recv(b)  # drain so the queue never fills
            yield sim.timeout(us(20))

    sim.spawn(feeder())
    sim.run(until=ms(3))
    # now ask the flooded NI to load a second endpoint
    c = EndpointState(1, 2, send_ring_depth=cfg.send_ring_depth,
                      recv_queue_depth=cfg.recv_queue_depth, tag=33,
                      table=nics[1].table)
    nics[1].driver_request(DriverOp("alloc", c, Event(sim)))
    done = Event(sim, "load2")
    nics[1].driver_request(DriverOp("load", c, done, frame=nics[1].free_frame_index()))
    t0 = sim.now
    sim.run(until=ms(30))
    assert done.triggered
    assert c.resident


def test_rx_fifo_is_bounded():
    sim, cfg, net, nics = build()
    assert nics[0]._rx_store.capacity == cfg.ni_rx_fifo_packets


def test_bulk_reservations_respect_queue_bound():
    """Concurrent bulk arrivals never overcommit the receive queue."""
    sim, cfg, net, nics = build(recv_queue_depth=4, user_credits=4)
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = add_ep(sim, nics[1], cfg, 1, 20)
    sim.run(until=ms(1))
    msgs = [mk((0, 1), (1, 1), 20, nbytes=8192, bulk=True) for _ in range(10)]
    for m in msgs:
        nics[0].host_enqueue_send(a, m)
    max_seen = [0]

    def watch():
        while True:
            occupancy = len(b.recv_requests) + b.bulk_reserved_req
            max_seen[0] = max(max_seen[0], occupancy)
            yield sim.timeout(us(20))

    sim.spawn(watch())
    sim.run(until=ms(40))
    assert max_seen[0] <= 4
    delivered = sum(1 for m in msgs if m.state is MessageState.DELIVERED)
    assert delivered == 4  # queue full; the rest NACKed and retrying


def test_quiesce_blocks_new_sends_but_retransmits():
    """During quiescing no new messages leave the endpoint (§5.3)."""
    sim, cfg, net, nics = build(dead_timeout_ms=500.0)
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = add_ep(sim, nics[1], cfg, 1, 20)
    sim.run(until=ms(1))
    first = mk((0, 1), (1, 1), 999)  # bad key: will be returned eventually
    nics[0].host_enqueue_send(a, first)
    sim.run(until=ms(1) + us(10))
    # queue more messages, then request unload before they are serviced
    later = [mk((0, 1), (1, 1), 20) for _ in range(5)]
    for m in later:
        nics[0].host_enqueue_send(a, m)
    done = Event(sim, "unload")
    nics[0].driver_request(DriverOp("unload", a, done))
    sim.run(until=ms(40))
    assert done.triggered
    assert not a.resident
    # the queued messages were NOT sent while quiescing; they remain
    # pending in the (now host-resident) ring for the next residency
    assert all(m.state is MessageState.PENDING for m in later)
    assert len(a.send_ring) == 5


def test_make_resident_notify_deduplicated():
    """A NACK storm produces one make-resident request, not hundreds."""
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = EndpointState(1, 1, send_ring_depth=cfg.send_ring_depth,
                      recv_queue_depth=cfg.recv_queue_depth, tag=20,
                      table=nics[1].table)
    nics[1].driver_request(DriverOp("alloc", b, Event(sim)))  # never loaded
    sim.run(until=ms(1))
    for _ in range(20):
        nics[0].host_enqueue_send(a, mk((0, 1), (1, 1), 20))
    sim.run(until=ms(6))
    assert nics[1].stats.nacks_sent  # NACKing happened
    assert nics[1].stats.make_resident_notifies == 1  # deduplicated


def test_meter_attributes_costs_by_operation():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = add_ep(sim, nics[1], cfg, 1, 20)
    sim.run(until=ms(1))
    for _ in range(10):
        nics[0].host_enqueue_send(a, mk((0, 1), (1, 1), 20))
    sim.run(until=ms(5))
    tx_meter = nics[0].meter
    rx_meter = nics[1].meter
    assert tx_meter.count_by_op["send"] == 10
    assert rx_meter.count_by_op["recv"] >= 10
    assert rx_meter.count_by_op["errcheck"] >= 10  # the §6.1 1.1 us
    assert tx_meter.count_by_op["ack_proc"] == 10
