"""Tenant-layer enforcement edges: quotas, vetoes, weights, storms.

Four enforcement behaviours the interference bench exercises end-to-end
are pinned here at the unit level, plus a seeded storm-interference
regression that must replay bit-exactly (the failure message carries
everything needed to reproduce a divergence).
"""

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import IsolationSLO, check_isolation
from repro.chaos.runner import run_chaos
from repro.cluster import Cluster, ClusterConfig
from repro.myrinet import Network
from repro.nic import DriverOp, EndpointState, Message, MsgKind, Nic
from repro.obs.events import TraceEvent
from repro.sim import Event, Simulator, ms, us
from repro.tenant import Tenant, TenantRegistry, TenantSpec, TokenBucket
from repro.tenant.bench import _storm_scenario
from repro.tenant.interference import InterferenceWorkload


# ---------------------------------------------------------------- helpers
def build_nics(n=2, **kw):
    cfg = ClusterConfig(num_hosts=n, **kw)
    sim = Simulator()
    net = Network(sim, cfg)
    nics = [Nic(sim, cfg, i, net) for i in range(n)]
    return sim, cfg, net, nics


def add_ep(sim, nic, cfg, ep_id, tag, frame=0):
    ep = EndpointState(nic.nic_id, ep_id, send_ring_depth=cfg.send_ring_depth,
                       recv_queue_depth=cfg.recv_queue_depth, tag=tag,
                       table=nic.table)
    nic.driver_request(DriverOp("alloc", ep, Event(sim)))
    nic.driver_request(DriverOp("load", ep, Event(sim), frame=frame))
    return ep


def mk(src, dst, key, nbytes=16):
    return Message(src_node=src[0], src_ep=src[1], dst_node=dst[0],
                   dst_ep=dst[1], key=key, kind=MsgKind.REQUEST,
                   payload_bytes=nbytes)


# ------------------------------------------------------------- spec/bucket
def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(name="").validate()
    with pytest.raises(ValueError):
        TenantSpec(name="t", weight=0).validate()
    with pytest.raises(ValueError):
        TenantSpec(name="t", frame_quota=1, frame_reservation=2).validate()
    with pytest.raises(ValueError):
        TenantSpec(name="t", rate_msgs_per_s=0).validate()
    TenantSpec(name="t", weight=4, frame_reservation=1,
               frame_quota=2, rate_msgs_per_s=1e4).validate()


def test_token_bucket_is_deterministic_and_integer():
    b = TokenBucket(rate_msgs_per_s=1e6, burst_msgs=2)  # 1000 ns/token
    assert b.interval_ns == 1000
    # starts full: two tokens back to back
    assert b.try_take(0) and b.try_take(0)
    assert not b.try_take(0)
    assert b.ready_at(0) == 1000
    # refills strictly from the simulated clock
    assert not b.try_take(999)
    assert b.try_take(1000)
    # never exceeds the cap after a long idle stretch
    assert b.try_take(10_000_000) and b.try_take(10_000_000)
    assert not b.try_take(10_000_000)


def test_registry_rejects_unsatisfiable_reservations():
    reg = TenantRegistry()
    reg.create("a", frame_reservation=3)
    reg.create("b", frame_reservation=3)
    with pytest.raises(ValueError):
        reg.validate_against(4)
    reg2 = TenantRegistry()
    reg2.create("a", frame_reservation=2)
    reg2.create("b", frame_reservation=2)
    reg2.validate_against(4)


def test_adopt_rejects_double_adoption():
    reg = TenantRegistry()
    a, b = reg.create("a"), reg.create("b")
    sim, cfg, net, nics = build_nics(1)
    ep = add_ep(sim, nics[0], cfg, 1, 10)
    a.adopt(ep)
    with pytest.raises(ValueError):
        b.adopt(ep)
    a.adopt(ep)  # re-adoption by the owner is a no-op
    assert len(a.endpoints) == 1


# --------------------------------------------------- rate limit = backpressure
def test_rate_limit_backpressures_in_send_ring_no_drops():
    """An empty token bucket defers service: messages wait in the send
    ring and all of them are eventually delivered, paced at the bucket
    interval — exhaustion never surfaces as a drop."""
    sim, cfg, net, nics = build_nics(2)
    a = add_ep(sim, nics[0], cfg, 1, 10)
    b = add_ep(sim, nics[1], cfg, 1, 20)
    tenant = Tenant(TenantSpec(name="slow", rate_msgs_per_s=100_000.0,
                               burst_msgs=8))  # 10 us/token
    tenant.adopt(a)
    sim.run(until=ms(1))

    n_msgs = 24
    for i in range(n_msgs):
        nics[0].host_enqueue_send(a, mk((0, 1), (1, 1), 20))
    arrivals = []

    def drain():
        while len(arrivals) < n_msgs:
            if nics[1].host_poll_recv(b):
                arrivals.append(sim.now)
            yield sim.timeout(us(1))

    sim.spawn(drain())
    sim.run(until=ms(1) + ms(2))

    assert len(arrivals) == n_msgs  # every message arrived: no drops
    assert tenant.stats.msgs_serviced == n_msgs
    assert tenant.stats.throttled >= 1
    # 8 burst tokens, then 16 messages paced at >= 10 us each
    paced_ns = arrivals[-1] - ms(1)
    assert paced_ns >= 16 * us(10)
    for reason in ("loss", "linkdown", "noroute", "dead_nic"):
        assert getattr(net.stats, f"dropped_{reason}") == 0


# -------------------------------------------------------- weighted service
def test_weighted_rotation_converges_to_configured_shares():
    """Weight 3 vs weight 1 on one NI with both rings deep: the service
    interleave converges to ~3:1 while both eventually drain fully."""
    sim, cfg, net, nics = build_nics(2, wrr_max_msgs=4)
    heavy_ep = add_ep(sim, nics[0], cfg, 1, 10, frame=0)
    light_ep = add_ep(sim, nics[0], cfg, 2, 11, frame=1)
    b1 = add_ep(sim, nics[1], cfg, 1, 20, frame=0)
    b2 = add_ep(sim, nics[1], cfg, 2, 21, frame=1)
    reg = TenantRegistry()
    reg.create("heavy", weight=3).adopt(heavy_ep)
    reg.create("light", weight=1).adopt(light_ep)
    sim.run(until=ms(1))

    per_ep = 48
    for _ in range(per_ep):
        nics[0].host_enqueue_send(heavy_ep, mk((0, 1), (1, 1), 20))
        nics[0].host_enqueue_send(light_ep, mk((0, 2), (1, 2), 21))
    arrivals = []

    def drain():
        while len(arrivals) < 2 * per_ep:
            if nics[1].host_poll_recv(b1):
                arrivals.append("heavy")
            if nics[1].host_poll_recv(b2):
                arrivals.append("light")
            yield sim.timeout(us(2))

    sim.spawn(drain())
    sim.run(until=ms(1) + ms(4))

    assert len(arrivals) == 2 * per_ep  # both tenants drain completely
    window = arrivals[: 2 * per_ep // 2]
    heavy_share = window.count("heavy") / len(window)
    # configured share is 3/4; allow slack for rotation boundaries
    assert 0.60 <= heavy_share <= 0.85
    assert reg.get("heavy").stats.msgs_serviced == per_ep
    assert reg.get("light").stats.msgs_serviced == per_ep


# ------------------------------------------------------- eviction enforcement
def _warm(cluster, ep):
    cluster.run_process(cluster.node(ep.node).driver.write_fault(ep), "w")
    cluster.run(until=cluster.sim.now + ms(20))


def test_cross_tenant_eviction_vetoed_at_reservation():
    """Under overcommit, a tenant may never be evicted below its frame
    reservation by another tenant — the victim must come from the
    requester's own holdings."""
    cluster = Cluster(ClusterConfig(num_hosts=1, endpoint_frames=2))
    drv = cluster.node(0).driver
    reg = TenantRegistry()
    protected = reg.create("protected", frame_reservation=1)
    greedy = reg.create("greedy")
    reg.validate_against(cluster.cfg.endpoint_frames)

    p1 = cluster.run_process(drv.alloc_endpoint(tag=1), "a1")
    g1 = cluster.run_process(drv.alloc_endpoint(tag=2), "a2")
    g2 = cluster.run_process(drv.alloc_endpoint(tag=3), "a3")
    protected.adopt(p1)
    greedy.adopt(g1, g2)

    _warm(cluster, p1)
    _warm(cluster, g1)
    assert p1.resident and g1.resident  # both frames occupied
    _warm(cluster, g2)  # overcommit: greedy needs a victim

    assert g2.resident
    assert p1.resident, "protected tenant evicted below its reservation"
    assert not g1.resident  # greedy victimized its own endpoint
    assert protected.stats.reservation_vetoes >= 1
    assert protected.stats.evictions_suffered == 0
    assert greedy.stats.quota_self_evictions == 1


def test_frame_quota_forces_self_paging():
    """A tenant at its frame quota must victimize its own endpoints even
    when other tenants' frames would otherwise be preferred victims."""
    cluster = Cluster(ClusterConfig(num_hosts=1, endpoint_frames=2))
    drv = cluster.node(0).driver
    reg = TenantRegistry()
    capped = reg.create("capped", frame_quota=1)
    other = reg.create("other")

    o1 = cluster.run_process(drv.alloc_endpoint(tag=1), "a1")
    c1 = cluster.run_process(drv.alloc_endpoint(tag=2), "a2")
    c2 = cluster.run_process(drv.alloc_endpoint(tag=3), "a3")
    other.adopt(o1)
    capped.adopt(c1, c2)

    _warm(cluster, o1)
    _warm(cluster, c1)
    assert o1.resident and c1.resident
    _warm(cluster, c2)  # capped is at quota: must self-page

    assert c2.resident
    assert o1.resident, "quota'd tenant stole another tenant's frame"
    assert not c1.resident
    assert capped.stats.quota_self_evictions == 1
    assert other.stats.evictions_suffered == 0


# ------------------------------------------------------ storm regression
def _bench_interference():
    # the BENCH_TENANT.json rate2k smoke cell, exactly: changing these
    # params changes which wormhole head-of-line wedges a probe can hit
    # (a crash mid-bulk-fragment stalls the shared path into node 1 for
    # up to a dead-peer timeout), so the regression pins the gated shape
    return InterferenceWorkload(quiet_weight=4, quiet_reservation=1,
                                noisy_rate_msgs_s=2_000.0)


def test_storm_interference_replays_bit_exactly():
    """The seeded noisy-tenant storm satisfies the delivery contract and
    the quiet tenant's SLO, and its timeline digest is bit-stable; on a
    mismatch the assertion message is the replay recipe."""
    wl = _bench_interference()
    scenario = _storm_scenario(11, wl, "brutal")
    r1 = run_chaos(scenario, wl, num_hosts=4, keep=True)
    wl2 = _bench_interference()
    r2 = run_chaos(_storm_scenario(11, wl2, "brutal"), wl2, num_hosts=4)

    assert r1.ok, f"contract violations: {[str(v) for v in r1.violations]}"
    assert r1.digest == r2.digest, (
        f"storm replay diverged for {scenario.describe()}: "
        f"{r1.digest[:16]} vs {r2.digest[:16]} — replay with "
        f"run_chaos(_storm_scenario(11, ...), InterferenceWorkload(...))")

    # storm faults must all land inside the noisy fault domain
    assert r1.faults_injected > 0
    # baseline: the calm rate2k cell's quiet p99 from BENCH_TENANT.json
    slo = IsolationSLO(baseline_p99_ns=296_800,
                       max_p99_inflation=3.0, min_goodput_frac=0.5)
    iso = check_isolation(r1.bus.events, wl, slo)
    assert not iso, [str(v) for v in iso]
    assert wl.quiet_answered > 0  # goodput never zero

    # the SLO gates themselves must be able to fire: an absurdly tight
    # baseline trips ISO.p99 on the same timeline
    tight = IsolationSLO(baseline_p99_ns=1, max_p99_inflation=1.0)
    tripped = check_isolation(r1.bus.events, wl, tight)
    assert any(v.invariant == "ISO.p99" for v in tripped)

    # per-tenant counters live on each tenant's stats: the quiet tenant
    # sent every ping and pong it was answered for, lost no frame to the
    # noisy one, and ends holding both of its endpoints resident
    quiet, noisy = wl.quiet, wl.noisy
    assert quiet.stats.msgs_serviced >= 2 * wl.quiet_answered
    assert quiet.stats.evictions_suffered == noisy.stats.evictions_caused == 0
    assert quiet.frames_held() == len(quiet.endpoints) == 2
    assert noisy.frames_held() <= len(noisy.endpoints)

    # the storm meets real noisy traffic: the sources on nodes 2 and 3
    # put packets on the wire and the noisy tenant serviced messages
    assert noisy.stats.msgs_serviced > 0
    for node in sorted(wl.noisy_nodes):
        assert r1.bus.select("pkt.tx", node=node), f"node {node} sent nothing"


def _ev(ts, kind, node, **args):
    return TraceEvent(ts, kind, node, args)


def test_isolation_partitions_by_sending_tenant_not_node():
    """The noisy sink on quiet node 1 replies to a source on noisy node 3:
    that reply is accepted on a quiet node but delivered on a noisy one,
    and belongs to the noisy tenant, so the quiet contract ignores it.
    The quiet ping's request and reply are audited wherever they go."""
    quiet_eps = [SimpleNamespace(node=0, ep_id=1), SimpleNamespace(node=1, ep_id=1)]
    wl = SimpleNamespace(quiet_nodes=frozenset((0, 1)),
                         quiet=SimpleNamespace(endpoints=quiet_eps),
                         pings=1, quiet_answered=1,
                         bench_latencies_ns=lambda: [100])
    slo = IsolationSLO(baseline_p99_ns=100)
    events = [
        _ev(10, "am.request", 0, msg=1, ep=1),  # quiet ping
        _ev(20, "msg.deliver", 1, msg=1, peer=0),
        _ev(30, "am.reply", 1, msg=2, ep=1),  # quiet pong
        _ev(40, "msg.deliver", 0, msg=2, peer=1),
        _ev(50, "am.reply", 1, msg=3, ep=2),  # noisy sink's credit reply
        _ev(60, "msg.deliver", 3, msg=3, peer=1),
    ]
    assert check_isolation(events, wl, slo) == []

    # the quiet tenant's own unresolved message is still caught
    lost = check_isolation(events[:1] + events[2:], wl, slo)
    assert [(v.invariant, v.msg_id) for v in lost] == [("ISO.contract.I1.unresolved", 1)]
