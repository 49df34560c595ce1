"""Unit tests for the Myrinet fabric: topology, routing, traversal, faults."""

import pytest

from repro.cluster import ClusterConfig
from repro.myrinet import FatTreeTopology, FaultInjector, Network, Packet, PacketType
from repro.obs import TraceBus
from repro.sim import Simulator, us


def make_net(n=8, **kw):
    cfg = ClusterConfig(num_hosts=n, **kw)
    sim = Simulator()
    return sim, Network(sim, cfg), cfg


# -------------------------------------------------------------- topology
def test_topology_scale_matches_paper_order():
    topo = FatTreeTopology(Simulator(), ClusterConfig())
    # Paper: 25 switches / 185 links; our 2-level Clos equivalent is the
    # same order of magnitude with identical per-leaf bisection.
    assert topo.num_leaves == 25
    assert topo.num_spines == 4
    assert len(topo.switches) == 29
    assert 150 <= topo.num_cables() <= 250


def test_leaf_assignment():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=100))
    assert topo.leaf_of(0) == 0
    assert topo.leaf_of(3) == 0
    assert topo.leaf_of(4) == 1
    assert topo.leaf_of(99) == 24


def test_route_same_leaf_is_two_links():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=100))
    route = topo.route(0, 1, 0)
    assert len(route) == 2
    assert topo.hop_count(0, 1) == 1


def test_route_cross_leaf_is_four_links_three_switches():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=100))
    route = topo.route(0, 99, 0)
    assert len(route) == 4
    assert topo.hop_count(0, 99) == 3


def test_route_self_is_empty():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=8))
    assert topo.route(3, 3, 0) == []


def test_channels_spread_over_spines():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=100))
    spines = {topo.route(0, 99, ch)[1].name for ch in range(4)}
    assert len(spines) == 4  # static channel->path binding multipaths


def test_route_avoids_down_spine():
    sim = Simulator()
    topo = FatTreeTopology(sim, ClusterConfig(num_hosts=100))
    r0 = topo.route(0, 99, 0)
    spine_link = r0[1]
    spine = int(spine_link.name.split("s")[-1])
    topo.spine_switch(spine).up = False
    r1 = topo.route(0, 99, 0)
    assert r1 is not None
    assert r1[1] is not spine_link


def test_route_none_when_host_link_down():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=8))
    topo.host_up[0].up = False
    assert topo.route(0, 5, 0) is None


@pytest.mark.parametrize("n", [16, 64])
def test_route_cache_keyed_by_preferred_spine(n):
    sim, net, cfg = make_net(n)
    topo = net.topology
    for src in range(n):
        for dst in range(n):
            by_spine = {}
            for ch in range(cfg.channels_per_pair):
                r = topo.cached_route(src, dst, ch)
                assert r == topo.route(src, dst, ch)
                spine = (src + dst + ch) % topo.num_spines
                assert by_spine.setdefault(spine, r) is r
    assert len(topo._route_cache) <= n * n * topo.num_spines

    # a link goes down: the cache steps aside for route()'s spine fallback
    src, dst = 0, n - 1
    preferred = topo.cached_route(src, dst, 0)
    preferred[1].up = False
    fallback = topo.cached_route(src, dst, 0)
    assert fallback == topo.route(src, dst, 0)
    assert fallback is not None and fallback[1] is not preferred[1]


def test_single_host_topology():
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=1))
    assert topo.num_spines == 0
    assert topo.route(0, 0, 0) == []


# ------------------------------------------------------------- traversal
def test_delivery_latency_matches_min_latency():
    sim, net, cfg = make_net(8)
    seen = []
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: seen.append(sim.now))
    pkt = Packet(src_nic=0, dst_nic=5, kind=PacketType.DATA, payload_bytes=16)
    net.send(pkt)
    sim.run()
    assert seen == [net.min_latency_ns(0, 5, pkt.wire_bytes(cfg.packet_header_bytes))]


def test_loopback_delivery():
    sim, net, _ = make_net(4)
    seen = []
    net.attach(1, lambda p: seen.append(sim.now))
    net.send(Packet(src_nic=1, dst_nic=1, kind=PacketType.DATA))
    sim.run()
    assert seen == [net.loopback_ns]


def test_link_serialization_congestion():
    """Two packets into the same destination serialize on its host link."""
    sim, net, cfg = make_net(8)
    arrivals = []
    net.attach(0, lambda p: None)
    net.attach(4, lambda p: None)
    net.attach(1, lambda p: arrivals.append(sim.now))
    big = 8192
    # src 0 and 4 are on different leaves from each other; both to 1
    for src in (0, 4):
        net.send(Packet(src_nic=src, dst_nic=1, kind=PacketType.DATA, payload_bytes=big))
    sim.run()
    assert len(arrivals) == 2
    gap = arrivals[1] - arrivals[0]
    # Second packet waits a full serialization of the first on some link.
    assert gap >= cfg.wire_ns(big) * 0.9


def test_packet_loss_drops():
    sim, net, cfg = make_net(8, packet_loss_prob=1.0)
    seen = []
    net.attach(0, lambda p: None)
    net.attach(1, lambda p: seen.append(p))
    net.send(Packet(src_nic=0, dst_nic=1, kind=PacketType.DATA))
    sim.run()
    assert seen == []
    assert net.stats.dropped_loss == 1


def test_corruption_flags_packet():
    sim, net, cfg = make_net(8, packet_corrupt_prob=1.0)
    seen = []
    net.attach(0, lambda p: None)
    net.attach(1, lambda p: seen.append(p.corrupted))
    net.send(Packet(src_nic=0, dst_nic=1, kind=PacketType.DATA))
    sim.run()
    assert seen == [True]


def test_dead_nic_swallow():
    sim, net, _ = make_net(8)
    net.attach(0, lambda p: None)
    net.attach(1, lambda p: pytest.fail("delivered to dead NIC"))
    net.set_nic_dead(1)
    net.send(Packet(src_nic=0, dst_nic=1, kind=PacketType.DATA))
    sim.run()
    assert net.stats.dropped_dead_nic == 1


def test_attach_twice_rejected():
    sim, net, _ = make_net(4)
    net.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        net.attach(99, lambda p: None)


# ----------------------------------------------------------------- faults
def test_fault_injector_spine_hotswap():
    sim, net, _ = make_net(100)
    inj = FaultInjector(sim, net)
    inj.set_spine(0, up=False)
    assert not net.topology.spine_switch(0).up
    # all routes still exist through remaining spines
    assert net.topology.route(0, 99, 0) is not None
    inj.set_spine(0, up=True)
    assert net.topology.spine_switch(0).up


def test_fault_injector_host_link_and_noroute():
    sim, net, _ = make_net(8)
    inj = FaultInjector(sim, net)
    net.attach(0, lambda p: None)
    net.attach(5, lambda p: pytest.fail("unreachable"))
    inj.set_host_link(5, up=False)
    net.send(Packet(src_nic=0, dst_nic=5, kind=PacketType.DATA))
    sim.run()
    assert net.stats.dropped_noroute == 1


def test_fault_injector_validates_probability():
    sim, net, _ = make_net(4)
    inj = FaultInjector(sim, net)
    with pytest.raises(ValueError):
        inj.set_loss(2.0)
    with pytest.raises(ValueError):
        inj.set_corruption(-0.1)


def test_fault_schedule_at():
    sim, net, _ = make_net(8)
    bus = TraceBus.attach(sim)
    inj = FaultInjector(sim, net)
    inj.at(us(100), inj.crash_node, 3)
    sim.run()
    assert 3 in net._dead_nics
    [ev] = bus.select("fault.inject")
    assert (ev.ts, ev.get("what")) == (us(100), "crash node3")


def test_packet_through_down_then_restored_spine():
    """Traffic keeps flowing across a hot-swap cycle (Section 3.2)."""
    sim, net, cfg = make_net(100)
    inj = FaultInjector(sim, net)
    got = []
    net.attach(0, lambda p: None)
    net.attach(99, lambda p: got.append(p.msg_id))
    for i in range(4):
        net.send(Packet(src_nic=0, dst_nic=99, kind=PacketType.DATA, channel=i, msg_id=i))
    inj.set_spine(1, up=False)
    for i in range(4, 8):
        net.send(Packet(src_nic=0, dst_nic=99, kind=PacketType.DATA, channel=i - 4, msg_id=i))
    sim.run()
    assert sorted(got) == list(range(8))
