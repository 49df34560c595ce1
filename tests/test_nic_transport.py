"""Unit tests for the NI firmware transport protocol (Section 5.1).

These drive the NIC directly (no OS, no AM library): endpoints are
registered and loaded through raw driver ops, messages through
``host_enqueue_send``.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.myrinet import NackReason, Network
from repro.nic import DriverOp, EndpointState, Message, MessageState, MsgKind, Nic, Residency
from repro.sim import Event, Simulator, ms, us


def build(n=4, **kw):
    cfg = ClusterConfig(num_hosts=n, **kw)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(n)]
    return sim, cfg, net, nics


def add_ep(sim, nic, cfg, ep_id, tag, load=True, frame=None):
    ep = EndpointState(
        nic.nic_id,
        ep_id,
        send_ring_depth=cfg.send_ring_depth,
        recv_queue_depth=cfg.recv_queue_depth,
        tag=tag,
        table=nic.table,
    )
    nic.driver_request(DriverOp("alloc", ep, Event(sim)))
    if load:
        # Frames must be chosen at op-execution time in real code (the
        # segment driver's remap thread is serial); tests loading several
        # endpoints up front pass explicit frame indices instead.
        if frame is None:
            frame = nic.free_frame_index()
        nic.driver_request(DriverOp("load", ep, Event(sim), frame=frame))
    return ep


def mk_msg(src, dst, key, nbytes=16, bulk=False, kind=MsgKind.REQUEST):
    return Message(
        src_node=src[0], src_ep=src[1], dst_node=dst[0], dst_ep=dst[1],
        key=key, kind=kind, payload_bytes=nbytes, is_bulk=bulk,
    )


def test_small_message_delivered_exactly_once():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20)
    outcomes = []
    msg.on_resolved = lambda m, ok: outcomes.append(ok)
    assert nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(5))
    assert outcomes == [True]
    assert len(b.recv_requests) == 1
    assert msg.state is MessageState.DELIVERED
    assert nics[1].stats.deliveries == 1


def test_reply_goes_to_reply_queue():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    nics[0].host_enqueue_send(a, mk_msg((0, 1), (1, 1), key=20, kind=MsgKind.REPLY))
    sim.run(until=ms(5))
    assert len(b.recv_replies) == 1
    assert len(b.recv_requests) == 0


def test_bad_key_returned_to_sender():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=999)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(5))
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason is NackReason.BAD_KEY
    assert len(a.returned) == 1
    assert len(b.recv_requests) == 0


def test_nonexistent_endpoint_returned_to_sender():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 7), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(5))
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason is NackReason.NO_ENDPOINT


def test_not_resident_nack_then_delivery_after_load():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20, load=False)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(2))
    assert msg.state is not MessageState.DELIVERED
    assert nics[1].stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0) >= 1
    # The NI asked its driver to make the endpoint resident (§4.2).
    assert nics[1].stats.make_resident_notifies == 1
    # Simulate the driver loading it; retransmission then succeeds.
    nics[1].driver_request(DriverOp("load", b, Event(sim), frame=nics[1].free_frame_index()))
    sim.run(until=ms(20))
    assert msg.state is MessageState.DELIVERED
    assert len(b.recv_requests) == 1


def test_receive_queue_overrun_nacks_and_recovers():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msgs = [mk_msg((0, 1), (1, 1), key=20) for _ in range(cfg.recv_queue_depth + 8)]
    for m in msgs:
        assert nics[0].host_enqueue_send(a, m)
    sim.run(until=ms(3))
    assert len(b.recv_requests) == cfg.recv_queue_depth
    assert nics[1].stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0) >= 1
    # Drain the queue; the NACKed messages retry and land exactly once.
    for _ in range(10):
        nics[1].host_poll_recv(b)
    sim.run(until=ms(40))
    assert sum(1 for m in msgs if m.state is MessageState.DELIVERED) == len(msgs)
    assert len(b.recv_requests) + 10 == len(msgs)


def test_exactly_once_under_heavy_loss():
    sim, cfg, net, nics = build(packet_loss_prob=0.3, dead_timeout_ms=400.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msgs = [mk_msg((0, 1), (1, 1), key=20) for _ in range(20)]
    results = []
    for m in msgs:
        m.on_resolved = lambda mm, ok: results.append(ok)
        nics[0].host_enqueue_send(a, m)
    sim.run(until=ms(300))
    delivered = [m for m in msgs if m.state is MessageState.DELIVERED]
    assert len(delivered) == 20, f"only {len(delivered)} delivered"
    # every message landed in the queue exactly once
    assert len(b.recv_requests) == 20
    assert nics[0].stats.retransmissions > 0


def test_exactly_once_under_corruption():
    sim, cfg, net, nics = build(packet_corrupt_prob=0.3, dead_timeout_ms=400.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msgs = [mk_msg((0, 1), (1, 1), key=20) for _ in range(10)]
    for m in msgs:
        nics[0].host_enqueue_send(a, m)
    sim.run(until=ms(300))
    assert all(m.state is MessageState.DELIVERED for m in msgs)
    assert len(b.recv_requests) == 10


def test_dead_receiver_returns_to_sender_after_timeout():
    sim, cfg, net, nics = build(dead_timeout_ms=20.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    nics[1].crash()
    msg = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(120))
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason == "timeout"
    assert len(a.returned) == 1


def test_first_transmission_at_time_zero_times_out_on_the_timer_path():
    """A message first put on the wire at t=0 ages like any other: its
    first retransmission timer past ``dead_timeout`` returns it."""
    sim, cfg, net, nics = build(n=2, ni_send_instr=0, packet_loss_prob=1.0,
                                dead_timeout_ms=5.0, max_consecutive_retrans=1000)
    nic = nics[0]
    # Resident before the clock starts (no load DMA), so the send at
    # t=0 reaches the wire at t=0.
    a = EndpointState(0, 1, send_ring_depth=cfg.send_ring_depth,
                      recv_queue_depth=cfg.recv_queue_depth, tag=10,
                      table=nic.table)
    nic.endpoints[a.ep_id] = a
    a.residency, a.frame = Residency.ONNIC_RW, 0
    nic.table.frame_rows[0] = a.row
    msg = mk_msg((0, 1), (1, 1), key=20)
    assert nic.host_enqueue_send(a, msg)
    sim.run(until=ms(30))
    assert msg.first_tx_ns == 0
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason == "timeout"
    assert nic.stats.unbinds == 0  # returned by the timer, not a rebind
    assert list(a.returned) == [msg]


def test_channel_unbind_after_bounded_retransmissions():
    """A message must not hog its channel forever (Section 5.1)."""
    sim, cfg, net, nics = build(dead_timeout_ms=500.0, max_consecutive_retrans=3)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20, load=False)  # stays non-resident
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(100))
    assert nics[0].stats.unbinds >= 1
    assert nics[0].stats.rebinds >= 1
    # channel must be reusable meanwhile: send another message to node 2
    c = add_ep(sim, nics[2], cfg, 1, tag=30)
    m2 = mk_msg((0, 1), (2, 1), key=30)
    nics[0].host_enqueue_send(a, m2)
    sim.run(until=ms(140))
    assert m2.state is MessageState.DELIVERED


def test_bulk_delivery_and_sbus_accounting():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20, nbytes=8192, bulk=True)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(10))
    assert msg.state is MessageState.DELIVERED
    assert nics[0].sbus.bytes_read >= 8192     # staged from host
    assert nics[1].sbus.bytes_written >= 8192  # written to host


def test_bulk_stream_spawns_no_process_per_fragment():
    """Regression guard: bulk fragments stage through the SBus engine as
    pooled callbacks (both ends), and endpoint loads need no helper
    either, so the processes ever spawned do not grow with the stream."""

    def spawned(nfrags):
        # one channel: fragments go one at a time, so every packet rides
        # the express path and the count is the firmware alone
        sim, cfg, net, nics = build(channels_per_pair=1)
        a = add_ep(sim, nics[0], cfg, 1, tag=10)
        add_ep(sim, nics[1], cfg, 1, tag=20)
        sim.run(until=ms(1))
        msgs = [mk_msg((0, 1), (1, 1), key=20, nbytes=4096, bulk=True)
                for _ in range(nfrags)]
        for m in msgs:
            assert nics[0].host_enqueue_send(a, m)
        sim.run(until=ms(1 + nfrags))
        assert all(m.state is MessageState.DELIVERED for m in msgs)
        assert nics[1].sbus.transfers == nfrags + 1  # + the frame load
        return sim.process_count()

    assert spawned(2) == spawned(12) == 4  # one firmware loop per NIC


def test_quiesce_unload_waits_for_inflight():
    sim, cfg, net, nics = build(dead_timeout_ms=200.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20, load=False)
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20)  # will be NACKed (not resident)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(2))
    assert a.inflight == 1
    done = Event(sim, "unload")
    nics[0].driver_request(DriverOp("unload", a, done))
    sim.run(until=ms(10))
    # still quiescing: the in-flight message is unresolved
    assert not done.triggered
    assert a.quiescing
    # let the receiver become resident -> ack -> quiescent -> unload
    nics[1].driver_request(DriverOp("load", b, Event(sim), frame=nics[1].free_frame_index()))
    sim.run(until=ms(200))
    assert done.triggered
    assert a.frame is None
    assert not a.resident
    assert msg.state is MessageState.DELIVERED


def test_free_endpoint_then_traffic_returns():
    sim, cfg, net, nics = build()
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    # unload+free b
    nics[1].driver_request(DriverOp("unload", b, Event(sim)))
    sim.run(until=ms(5))
    nics[1].driver_request(DriverOp("free", b, Event(sim)))
    sim.run(until=ms(6))
    msg = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(20))
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason is NackReason.NO_ENDPOINT


def test_wrr_fairness_two_endpoints():
    """Two endpoints flooding one destination share the NI fairly (§5.2).

    The loiter budget bounds the burst one endpoint can monopolize: with a
    budget of 8, deliveries must alternate in runs of at most ~8.
    """
    sim, cfg, net, nics = build(wrr_max_msgs=8)
    a1 = add_ep(sim, nics[0], cfg, 1, tag=10, frame=0)
    a2 = add_ep(sim, nics[0], cfg, 2, tag=11, frame=1)
    b1 = add_ep(sim, nics[1], cfg, 1, tag=20, frame=0)
    b2 = add_ep(sim, nics[1], cfg, 2, tag=21, frame=1)
    sim.run(until=ms(1))
    n = 60
    m1 = [mk_msg((0, 1), (1, 1), key=20) for _ in range(n)]
    m2 = [mk_msg((0, 2), (1, 2), key=21) for _ in range(n)]
    for x, y in zip(m1, m2):
        nics[0].host_enqueue_send(a1, x)
        nics[0].host_enqueue_send(a2, y)

    # drain both receive queues continuously
    def drain():
        while True:
            nics[1].host_poll_recv(b1)
            nics[1].host_poll_recv(b2)
            yield sim.timeout(us(5))

    sim.spawn(drain())
    sim.run(until=ms(1) + us(400))
    d1 = sum(1 for m in m1 if m.state is MessageState.DELIVERED)
    d2 = sum(1 for m in m2 if m.state is MessageState.DELIVERED)
    assert d1 + d2 > 20
    assert abs(d1 - d2) <= 2 * cfg.wrr_max_msgs


def test_reboot_self_synchronizes_channels():
    sim, cfg, net, nics = build(dead_timeout_ms=100.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    m1 = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, m1)
    sim.run(until=ms(5))
    assert m1.state is MessageState.DELIVERED
    # receiver reboots: sequencing state on both ends now disagrees
    nics[1].crash()
    nics[1].reboot()
    nics[1].driver_request(DriverOp("load", b, Event(sim), frame=nics[1].free_frame_index()))
    sim.run(until=ms(10))
    m2 = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, m2)
    sim.run(until=ms(100))
    assert m2.state is MessageState.DELIVERED


def test_sender_reboot_returns_orphans():
    sim, cfg, net, nics = build(dead_timeout_ms=5_000.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    b = add_ep(sim, nics[1], cfg, 1, tag=20, load=False)  # NACK forever
    sim.run(until=ms(1))
    msg = mk_msg((0, 1), (1, 1), key=20)
    nics[0].host_enqueue_send(a, msg)
    sim.run(until=ms(3))
    nics[0].crash()
    nics[0].reboot()
    sim.run(until=ms(10))
    assert msg.state is MessageState.RETURNED
    assert msg.return_reason == "reboot"


def test_lamport_clocks_advance_across_agents():
    sim, cfg, net, nics = build()
    t0 = nics[0].clock.time
    add_ep(sim, nics[0], cfg, 1, tag=10)
    sim.run(until=ms(1))
    assert nics[0].clock.time > t0


# ------------------------------------------------------ channels by use
def test_burst_creates_channels_in_index_order_and_blocks_surplus():
    """Channels to a peer are created as used, in index order, never
    past ``channels_per_pair``; the surplus waits blocked on the peer."""
    from repro.obs import TraceBus

    sim, cfg, net, nics = build(channels_per_pair=4, send_ring_depth=16)
    bus = TraceBus.attach(sim)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    add_ep(sim, nics[1], cfg, 1, tag=20)
    sim.run(until=ms(1))
    assert 1 not in nics[0]._tx_channels  # nothing sent: nothing allocated
    # bulk fragments: each holds its channel through both staging DMAs
    msgs = [mk_msg((0, 1), (1, 1), key=20, nbytes=4096, bulk=True) for _ in range(10)]
    for m in msgs:
        assert nics[0].host_enqueue_send(a, m)
    widths = []
    while sim.now < ms(5):
        sim.run(until=sim.now + us(1))
        widths.append(len(nics[0]._tx_channels.get(1, ())))
    assert all(m.state is MessageState.DELIVERED for m in msgs)
    assert widths == sorted(widths) and widths[0] < widths[-1] == cfg.channels_per_pair
    chans = [ev.args["ch"] for ev in bus.select("pkt.tx", node=0)]
    assert chans[:4] == [0, 1, 2, 3]
    assert set(chans) == {0, 1, 2, 3}
    stalls = bus.select("chan.stall", node=0)
    assert stalls and all(ev.args["peer"] == 1 for ev in stalls)


def test_alltoall_channel_lists_end_at_the_highest_channel_used():
    """After a 16-rank all-to-all every per-peer channel list is exactly
    as long as the highest channel index that carried a packet, plus one."""
    from repro.cluster import Cluster
    from repro.lib.mpi import build_world

    cluster = Cluster(ClusterConfig(num_hosts=16))
    bus = cluster.enable_tracing()
    world = cluster.run_process(build_world(cluster, list(range(16))), "mpi")

    def main(thr, comm):
        return (yield from comm.alltoall(thr, list(range(comm.size)), 65536))

    threads = world.spawn(main)
    cluster.run(until=cluster.sim.now + ms(3_000))
    assert all(t.finished for t in threads)
    highest = {}
    for ev in bus.select("pkt."):
        if ev.kind in ("pkt.tx", "pkt.retransmit"):
            key = (ev.node, ev.args["peer"])
            highest[key] = max(highest.get(key, -1), ev.args["ch"])
    lengths = {(n, peer): len(chans)
               for n in range(16)
               for peer, chans in cluster.node(n).nic._tx_channels.items()}
    assert lengths == {key: ch + 1 for key, ch in highest.items()}
    assert max(lengths.values()) > 1  # the all-to-all did use several
    assert max(lengths.values()) <= cluster.cfg.channels_per_pair


def test_rebind_never_grows_the_channel_set_past_its_cap():
    """An unbound message's rebind takes an idle channel or waits; it
    never adds one past ``channels_per_pair``."""
    sim, cfg, net, nics = build(channels_per_pair=1, max_consecutive_retrans=1,
                                dead_timeout_ms=500.0)
    a = add_ep(sim, nics[0], cfg, 1, tag=10)
    add_ep(sim, nics[1], cfg, 1, tag=20, load=False)  # NACKs every copy
    sim.run(until=ms(1))
    for _ in range(2):
        assert nics[0].host_enqueue_send(a, mk_msg((0, 1), (1, 1), key=20))
    widths = set()
    while sim.now < ms(60):
        sim.run(until=sim.now + us(100))
        widths.add(len(nics[0]._tx_channels.get(1, ())))
    assert nics[0].stats.unbinds >= 2 and nics[0].stats.rebinds >= 1
    assert widths == {1}
