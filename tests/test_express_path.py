"""The express delivery path: elision, equivalence, revocation, fallback.

The express path (``ClusterConfig.express_path``, on by default) must be
*unobservable*: delivery timestamps, :class:`NetworkStats`, and per-link
accounting are bit-identical whether a packet rode one pooled callback
or the full per-hop wormhole process.  These tests drive the same
deterministic traffic through both modes and diff everything observable,
then poke each disengagement trigger (faults, direct ``up`` flips,
tracing, contention) to pin the fallback machinery.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.myrinet import Network, Packet, PacketType
from repro.obs import TraceBus
from repro.sim import ReferenceSimulator, SimError, Simulator


def make_net(n=8, express=True, **kw):
    cfg = ClusterConfig(num_hosts=n, express_path=express, **kw)
    sim = Simulator()
    return sim, Network(sim, cfg), cfg


def link_ledger(net):
    """Every link's accounting totals, keyed by name."""
    return {
        link.name: (link.bytes_carried, link.packets_carried, link.busy_ns)
        for link in net.topology.all_links
    }


def drive(net, sim, sends):
    """Inject ``(at_ns, src, dst, nbytes)`` sends; return the delivery log."""
    log = []
    for i in range(net.cfg.num_hosts):
        net.attach(i, lambda p: log.append((net.sim.now, p.src_nic,
                                            p.dst_nic, p.msg_id)))
    for k, (at, src, dst, nbytes) in enumerate(sends):
        sim.schedule(at, net.send,
                     Packet(src, dst, PacketType.DATA,
                            payload_bytes=nbytes, msg_id=k + 1))
    sim.run()
    return log


def both_modes(sends, n=8):
    """Run the same send schedule express-on and express-off."""
    sim1, net1, _ = make_net(n, express=True)
    log1 = drive(net1, sim1, sends)
    sim2, net2, _ = make_net(n, express=False)
    log2 = drive(net2, sim2, sends)
    return (sim1, net1, log1), (sim2, net2, log2)


# ------------------------------------------------------------ equivalence
def test_uncontended_send_is_express_and_identical():
    sends = [(0, 0, 5, 64)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)
    assert n1.express.commits == 1 and n1.express.delivered == 1
    assert n2.express.hits() == 0
    # the whole point: strictly fewer kernel events dispatched
    assert s1.events_dispatched < s2.events_dispatched


def test_contended_burst_identical_timings_and_accounting():
    # staggered overlapping sends sharing links: commits, revocations
    # and fallbacks all happen, and nothing observable may differ
    sends = []
    for k in range(12):
        sends.append((k * 900, k % 8, (k + 3) % 8, 16 + 128 * (k % 4)))
    sends += [(11_000, 1, 0, 8192), (11_200, 2, 0, 8192), (11_300, 3, 0, 64)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)
    assert not n1._flights  # every flight fired or was demoted


def test_revocation_preserves_delivery_times():
    # first send commits an express flight; the second intersects its
    # route mid-flight and must demote it without shifting its delivery
    sends = [(0, 0, 1, 4096), (500, 2, 1, 64)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert n1.express.commits >= 1 and n1.express.revoked >= 1
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)


def test_loopback_express_parity_and_cost():
    sends = [(0, 3, 3, 32), (100, 3, 3, 0)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert log1 == log2
    assert [t for t, *_ in log1] == [n1.loopback_ns, 100 + n1.loopback_ns]
    assert n1.express.loopback == 2
    assert n1.stats == n2.stats
    assert n1.stats.delivered == 2 and n1.stats.sent == 2
    assert n1.stats.bytes_delivered == n2.stats.bytes_delivered > 0


def test_express_on_reference_kernel():
    # the express path only needs schedule/spawn/call_after, which the
    # un-optimized reference kernel also provides
    cfg = ClusterConfig(num_hosts=8, express_path=True)
    sim = ReferenceSimulator()
    net = Network(sim, cfg)
    seen = []
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: seen.append(sim.now))
    pkt = Packet(0, 5, PacketType.DATA, payload_bytes=16)
    net.send(pkt)
    sim.run()
    assert net.express.commits == 1
    assert seen == [net.min_latency_ns(0, 5, pkt.wire_bytes(cfg.packet_header_bytes))]


# ------------------------------------------------------- disengagement
def test_fault_injection_disables_express_until_quiet_period():
    from repro.myrinet import FaultInjector

    sim, net, _ = make_net(8)
    assert net.express_active
    FaultInjector(sim, net).set_loss(0.0)  # benign, still a fault event
    assert not net.express_active
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: None)
    net.send(Packet(0, 5, PacketType.DATA))  # inside the quiet window
    sim.run()
    assert net.express.hits() == 0  # slow path until the window elapses


def test_transient_flap_rearms_express():
    """Satellite regression: one transient link flap must not demote the
    remainder of a long run — after the quiet period (fabric healthy),
    the next send re-arms the path, and everything observable is still
    bit-identical to the express-off run."""
    sends = [(0, 0, 5, 64),              # pristine: express commit
             (1_500, 0, 5, 64),          # during/after the flap: slow
             (2_500_000, 0, 5, 64)]      # quiet period over: express again

    def flap(net, sim):
        link = net.topology.host_up[3]  # not on the 0->5 route
        sim.schedule(1_000, setattr, link, "up", False)
        sim.schedule(2_000, setattr, link, "up", True)

    sim1, net1, _ = make_net(8)
    flap(net1, sim1)
    log1 = drive(net1, sim1, sends)
    assert net1.express.commits == 2
    assert net1.express.reenabled == 1
    assert net1.express_active
    bus = TraceBus(sim1)  # unattached: publishing only reads counters
    bus.publish_network(net1)
    assert bus.metrics.counter("net.express.reenabled").value == 1

    sim2, net2, _ = make_net(8, express=False)
    flap(net2, sim2)
    log2 = drive(net2, sim2, sends)
    assert log1 == log2
    assert net1.stats == net2.stats
    assert link_ledger(net1) == link_ledger(net2)


def test_no_rearm_while_fabric_degraded():
    sim, net, _ = make_net(8)
    net.topology.host_up[3].up = False  # down and stays down
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: None)
    sim.schedule(10_000_000, net.send, Packet(0, 5, PacketType.DATA))
    sim.run()
    assert net.express.hits() == 0 and net.express.reenabled == 0


def test_disjoint_wormhole_does_not_block_express():
    """Satellite regression: per-link slow-path tracking — a wormhole in
    flight on one corner of the fabric must not force unrelated routes
    onto the slow path (the old fabric-wide ``fallback_active``)."""
    # A commits 0->5; B (2->5) intersects and revokes it, then falls
    # back; C (1->2, fully disjoint from both) must still go express.
    sends = [(0, 0, 5, 4096), (500, 2, 5, 64), (600, 1, 2, 64)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert n1.express.revoked == 1
    assert n1.express.commits == 2  # A and C; the old code forced C slow
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)


def test_direct_up_flip_disables_express():
    sim, net, _ = make_net(8)
    net.topology.host_up[3].up = False  # a test poking the attribute
    assert not net.express_active
    sim2, net2, _ = make_net(8)
    net2.topology.spine_switch(0).up = False
    assert not net2.express_active


def test_fault_mid_flight_demotes_committed_flight():
    # commit a flight, inject a fault before its delivery callback: the
    # flight is replayed as a wormhole process and still lands on time
    sends = [(0, 0, 5, 2048)]
    sim1, net1, _ = make_net(8)
    from repro.myrinet import FaultInjector

    fi = FaultInjector(sim1, net1)
    sim1.schedule(600, fi.set_corruption, 0.0)
    log1 = drive(net1, sim1, sends)
    assert net1.express.commits == 1 and net1.express.revoked == 1

    sim2, net2, _ = make_net(8, express=False)
    log2 = drive(net2, sim2, sends)
    assert log1 == log2
    assert link_ledger(net1) == link_ledger(net2)


def test_tracing_keeps_express():
    sim, net, _ = make_net(8)
    bus = TraceBus.attach(sim)
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: None)
    net.send(Packet(0, 5, PacketType.DATA))
    sim.run()
    assert net.express.hits() == 1  # a bus does not change the path
    assert net.stats.delivered == 1
    assert bus.counts()["net.deliver"] == 1


def test_tracing_attached_mid_run_still_revokes_flights():
    """A bus attached between two sends changes nothing: the second
    send revokes the committed flight claiming its links exactly as
    without a bus.  Regression: a send that skipped revocation would
    acquire the flight's tail link unopposed and overtake it (2->5
    landed at 15,463 ns instead of 29,126 ns)."""

    def run(express):
        sim, net, _ = make_net(8, express=express)
        log = []
        for i in range(8):
            net.attach(i, lambda p: log.append((sim.now, p.src_nic,
                                                p.dst_nic, p.msg_id)))
        sim.schedule(0, net.send, Packet(0, 5, PacketType.DATA,
                                         payload_bytes=2048, msg_id=1))
        sim.schedule(100, TraceBus.attach, sim)
        sim.schedule(150, net.send, Packet(2, 5, PacketType.DATA,
                                           payload_bytes=2048, msg_id=2))
        sim.run()
        return net, log

    n1, log1 = run(True)
    n2, log2 = run(False)
    assert log1 == log2
    assert log1[-1] == (29_126, 2, 5, 2)
    assert n1.express.commits == 1 and n1.express.revoked == 1
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)


def test_express_stats_are_not_part_of_network_stats():
    from dataclasses import asdict

    sim, net, _ = make_net(4)
    assert "commits" not in asdict(net.stats)


# ------------------------------------------------ back-to-back same route
def test_back_to_back_same_route_send_revokes_committed_flight():
    """A same-route follow-up send revokes the committed flight (the
    pair contends FIFO on every link) and both continue as wormhole
    processes — everything observable matches the express-off run."""
    sends = [(0, 0, 5, 256), (200, 0, 5, 512), (400, 0, 5, 64)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert n1.express.commits == 1
    assert n1.express.revoked == 1
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)


def test_same_route_revocation_then_intersecting_send_matches_express_off():
    # back-to-back same-route sends, then a send sharing their
    # downstream link: every demoted flight must replay as a wormhole
    # process with identical timing
    sends = [(0, 0, 5, 2048), (150, 0, 5, 2048), (300, 0, 5, 64),
             (700, 2, 5, 128)]
    (s1, n1, log1), (s2, n2, log2) = both_modes(sends)
    assert n1.express.revoked >= 1
    assert log1 == log2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)
    assert not n1._flights


def test_blocked_delivery_queues_same_route_followers_as_express_off():
    """The first of four back-to-back packets is delivered into a full
    receive FIFO and holds the tail link until it drains; the followers
    queue behind it in FIFO order, and no link keeps a stale claim."""
    def run(express):
        sim, net, _ = make_net(8, express=express)
        log, blockers = [], []

        def rx(p):
            log.append((sim.now, p.msg_id))
            if p.msg_id == 1:  # block the first delivery for a while
                ev = sim.event()
                blockers.append(ev)
                return ev
            return None

        net.attach(0, lambda p: None)
        net.attach(5, rx)
        for k in range(4):
            sim.schedule(k * 200, net.send,
                         Packet(0, 5, PacketType.DATA,
                                payload_bytes=256, msg_id=k + 1))
        sim.schedule(50_000, lambda: blockers[0].trigger(None))
        sim.run()
        clean = all(l.slow_refs == 0 and l._port.idle
                    and l.express_flight is None and l.busy_until == 0
                    for l in net.topology.all_links)
        return net, log, clean

    n1, log1, clean1 = run(express=True)
    n2, log2, clean2 = run(express=False)
    assert n1.express.revoked >= 1
    assert log1 == log2
    assert clean1 and clean2
    assert n1.stats == n2.stats
    assert link_ledger(n1) == link_ledger(n2)


def test_fault_after_same_route_revocation_matches_express_off():
    # the follow-up send demotes the first flight; the fault then lands
    # on two wormhole packets and must not disturb either
    sends = [(0, 0, 5, 2048), (150, 0, 5, 2048)]
    sim1, net1, _ = make_net(8)
    from repro.myrinet import FaultInjector

    fi = FaultInjector(sim1, net1)
    sim1.schedule(600, fi.set_corruption, 0.0)  # benign fault event
    log1 = drive(net1, sim1, sends)
    assert net1.express.commits == 1 and net1.express.revoked == 1

    sim2, net2, _ = make_net(8, express=False)
    log2 = drive(net2, sim2, sends)
    assert log1 == log2
    assert link_ledger(net1) == link_ledger(net2)


# ------------------------------------------------------ attach lifecycle
def test_detach_and_reattach():
    sim, net, _ = make_net(4)
    net.attach(1, lambda p: None)
    assert net.attached(1)
    net.detach(1)
    assert not net.attached(1)
    net.attach(1, lambda p: None)  # regression: no "already attached"
    with pytest.raises(ValueError):
        net.detach(3)  # never attached
    with pytest.raises(ValueError):
        net.detach(99)  # out of range


def test_crash_reboot_cycle_reattaches_cleanly():
    """Regression: a crash/reboot/crash/reboot cycle used to raise
    ValueError("NIC already attached") because crash never detached."""
    from repro.cluster.builder import Cluster

    cluster = Cluster(ClusterConfig(num_hosts=4))
    nic = cluster.node(1).nic

    def cycle():
        for _ in range(2):
            cluster.crash_node(1)
            yield cluster.sim.timeout(1000)
            cluster.reboot_node(1)
            yield cluster.sim.timeout(1000)

    cluster.run_process(cycle(), name="cycle")
    assert nic.alive
    assert cluster.network.attached(1)


def test_session_close_detaches_all_nics():
    from repro.api import Session

    with Session(nodes=[0, 1], num_hosts=4) as s:
        net = s.cluster.network
        assert net.attached(0) and net.attached(1)
    assert not any(net.attached(i) for i in range(4))


# ------------------------------------------------------ drop observability
def test_per_reason_drop_counters_on_bus():
    sim, net, _ = make_net(8, packet_loss_prob=1.0)
    bus = TraceBus.attach(sim)
    net.attach(0, lambda p: None)
    net.send(Packet(0, 5, PacketType.DATA))  # lost
    sim.run()
    net.cfg.packet_loss_prob = 0.0
    net.topology.host_down[5].up = False
    net.send(Packet(0, 5, PacketType.DATA))  # no route
    sim.run()
    net.set_nic_dead(3, True)
    net.send(Packet(0, 3, PacketType.DATA))  # dead NIC
    net.send(Packet(0, 6, PacketType.DATA))  # no handler attached
    sim.run()
    reasons = [ev.get("reason") for ev in bus.select("net.drop")]
    assert reasons == ["loss", "noroute", "dead_nic", "dead_nic"]
    assert bus.metrics.counter("net.drop.loss", node=0).value == 1
    assert bus.metrics.counter("net.drop.noroute", node=5).value == 1
    assert net.stats.dropped_dead_nic == 2

    bus.publish_network(net)
    assert bus.metrics.counter("net.drop.dead_nic.total").value == 2
    assert bus.metrics.counter("net.drop.noroute.total").value == 1


def test_chaos_checker_audits_drop_accounting():
    from repro.chaos.invariants import check_drop_accounting

    sim, net, _ = make_net(8, packet_loss_prob=1.0)
    bus = TraceBus.attach(sim)
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: None)
    net.send(Packet(0, 5, PacketType.DATA))
    sim.run()
    assert check_drop_accounting(net, bus.events) == []
    # cook the books: an uncounted drop must be flagged
    net.stats.dropped_loss += 1
    out = check_drop_accounting(net, bus.events)
    assert len(out) == 1 and out[0].invariant == "D.mismatch"


# ------------------------------------------------------------- sim kernel
@pytest.mark.parametrize("factory", [Simulator, ReferenceSimulator])
def test_call_after_fires_and_cancels(factory):
    sim = factory()
    hits = []
    sim.call_after(50, hits.append, "a")
    entry = sim.call_after(70, hits.append, "b")
    entry[3] = None  # the documented cancellation protocol
    sim.call_after(90, hits.append, "c")
    sim.run()
    assert hits == ["a", "c"]
    assert sim.now == 90
    with pytest.raises(SimError):
        sim.call_after(-1, hits.append, "d")
