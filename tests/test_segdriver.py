"""Unit tests for the endpoint segment driver: the Figure 2 protocol."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.hw import Cpu
from repro.nic import Residency
from repro.sim import ms, us


def build(n=2, **kw):
    return Cluster(ClusterConfig(num_hosts=n, **kw))


def alloc(cluster, node_id, tag=1):
    return cluster.run_process(cluster.node(node_id).driver.alloc_endpoint(tag=tag), "alloc")


def test_alloc_starts_onhost_ro():
    cluster = build()
    ep = alloc(cluster, 0)
    assert ep.residency is Residency.ONHOST_RO
    assert ep.ep_id in cluster.node(0).nic.endpoints
    assert cluster.node(0).driver.stats.allocs == 1


def test_write_fault_transitions_and_remaps():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.write_fault(ep), "fault")
    # immediately after the fault the endpoint is writable on the host
    assert drv.stats.write_faults == 1
    # the background thread eventually binds it to an NI frame
    cluster.run(until=cluster.sim.now + ms(20))
    assert ep.residency is Residency.ONNIC_RW
    assert drv.stats.remaps == 1


def test_second_write_fault_is_noop_when_resident():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.write_fault(ep), "f1")
    cluster.run(until=cluster.sim.now + ms(20))
    cluster.run_process(drv.write_fault(ep), "f2")
    assert drv.stats.write_faults == 1  # no second trap


def test_eviction_when_frames_full():
    cluster = build(endpoint_frames=2)
    drv = cluster.node(0).driver
    eps = [alloc(cluster, 0, tag=i + 1) for i in range(3)]
    for ep in eps[:2]:
        cluster.run_process(drv.write_fault(ep), "f")
        cluster.run(until=cluster.sim.now + ms(20))
    assert all(e.resident for e in eps[:2])
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    assert eps[2].resident
    assert drv.stats.evictions == 1
    # exactly one of the first two was evicted back to on-host r/o
    evicted = [e for e in eps[:2] if e.residency is Residency.ONHOST_RO]
    assert len(evicted) == 1


def test_lru_replacement_policy_picks_oldest():
    cluster = build(endpoint_frames=2, replacement_policy="lru")
    drv = cluster.node(0).driver
    eps = [alloc(cluster, 0, tag=i + 1) for i in range(3)]
    for ep in eps[:2]:
        cluster.run_process(drv.write_fault(ep), "f")
        cluster.run(until=cluster.sim.now + ms(20))
    eps[0].last_active_ns = cluster.sim.now  # recently used
    eps[1].last_active_ns = 0                # stale -> LRU victim
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    assert eps[1].residency is Residency.ONHOST_RO
    assert eps[0].resident


def test_pageout_and_pagein():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    drv.pageout(ep)
    assert ep.residency is Residency.ONDISK
    assert drv.stats.pageouts == 1
    t0 = cluster.sim.now
    cluster.run_process(drv.write_fault(ep), "fault")
    assert drv.stats.pageins == 1
    # disk page-in took real time
    assert cluster.sim.now - t0 >= us(cluster.cfg.disk_pagein_us)


def test_pageout_only_from_onhost_ro():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    # Only on-host r/o pages are reclaimable (Figure 2's 'vm pageout').
    ep.residency = Residency.ONHOST_RW
    drv.pageout(ep)
    assert ep.residency is Residency.ONHOST_RW
    ep.residency = Residency.ONNIC_RW
    drv.pageout(ep)
    assert ep.residency is Residency.ONNIC_RW


def test_free_endpoint_synchronizes_with_nic():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.write_fault(ep), "f")
    cluster.run(until=cluster.sim.now + ms(20))
    assert ep.resident
    cluster.run_process(drv.free_endpoint(ep), "free")
    assert ep.residency is Residency.FREED
    assert ep.ep_id not in cluster.node(0).nic.endpoints
    assert cluster.node(0).nic.free_frame_index() is not None


def test_free_is_idempotent():
    cluster = build()
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.free_endpoint(ep), "free1")
    cluster.run_process(drv.free_endpoint(ep), "free2")
    assert drv.stats.frees == 1


def test_arrival_for_nonresident_triggers_proxy_fault():
    """Message arrival makes a non-resident endpoint resident (§4.2)."""
    from repro.nic import Message, MsgKind

    cluster = build()
    drv0, drv1 = cluster.node(0).driver, cluster.node(1).driver
    src = alloc(cluster, 0, tag=1)
    dst = alloc(cluster, 1, tag=2)
    cluster.run_process(drv0.write_fault(src), "f")
    cluster.run(until=cluster.sim.now + ms(20))
    msg = Message(src_node=0, src_ep=src.ep_id, dst_node=1, dst_ep=dst.ep_id,
                  key=2, kind=MsgKind.REQUEST, payload_bytes=16)
    cluster.node(0).nic.host_enqueue_send(src, msg)
    cluster.run(until=cluster.sim.now + ms(50))
    assert dst.resident                      # pulled in by the arrival
    assert drv1.stats.proxy_faults >= 1      # software-initiated fault
    assert len(dst.recv_requests) == 1       # and the retry delivered


def test_stale_notify_discarded_after_free():
    """The free-vs-make-resident race resolves by generation (§4.3)."""
    from repro.nic import Message, MsgKind

    cluster = build()
    drv1 = cluster.node(1).driver
    src = alloc(cluster, 0, tag=1)
    dst = alloc(cluster, 1, tag=2)
    cluster.run_process(cluster.node(0).driver.write_fault(src), "f")
    cluster.run(until=cluster.sim.now + ms(20))
    msg = Message(src_node=0, src_ep=src.ep_id, dst_node=1, dst_ep=dst.ep_id,
                  key=2, kind=MsgKind.REQUEST, payload_bytes=16)
    cluster.node(0).nic.host_enqueue_send(src, msg)

    # free the destination immediately, racing the make-resident notify
    def racer():
        yield from drv1.free_endpoint(dst)

    cluster.sim.spawn(racer(), "racer")
    cluster.run(until=cluster.sim.now + ms(60))
    assert dst.residency is Residency.FREED
    assert not dst.resident
    # the message was ultimately returned to its sender
    from repro.nic import MessageState
    assert msg.state is MessageState.RETURNED


def test_sync_fault_ablation_blocks_until_resident():
    """enable_onhost_rw=False: the §6.4.1 pre-fix behaviour."""
    cluster = build(enable_onhost_rw=False)
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    t0 = cluster.sim.now
    cluster.run_process(drv.write_fault(ep), "fault")
    # the faulting "thread" only resumed once the endpoint was resident
    assert ep.resident
    assert cluster.sim.now - t0 >= us(500)  # paid the whole remap latency


# ===================================================== replacement policies
def resident_pair(cluster, drv):
    """Allocate three endpoints and make the first two resident."""
    eps = [alloc(cluster, 0, tag=i + 1) for i in range(3)]
    for ep in eps[:2]:
        cluster.run_process(drv.write_fault(ep), "f")
        cluster.run(until=cluster.sim.now + ms(20))
    assert all(e.resident for e in eps[:2])
    return eps


def test_policy_registry_exposes_all_policies():
    from repro.osim.segdriver import REPLACEMENT_POLICIES, VictimPolicy

    assert set(REPLACEMENT_POLICIES) >= {"random", "lru", "clock", "active-preference"}
    for cls in REPLACEMENT_POLICIES.values():
        assert issubclass(cls, VictimPolicy)


def test_unknown_policy_rejected():
    import pytest

    with pytest.raises(ValueError, match="unknown replacement policy"):
        build(replacement_policy="second-sight")


def test_lru_tie_break_is_deterministic_on_ep_id():
    """Equal last_active_ns must not leave the victim to dict order."""
    cluster = build(endpoint_frames=2, replacement_policy="lru")
    drv = cluster.node(0).driver
    eps = resident_pair(cluster, drv)
    eps[0].last_active_ns = 0
    eps[1].last_active_ns = 0  # tie -> lower ep_id loses
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    assert eps[0].residency is Residency.ONHOST_RO
    assert eps[1].resident


def test_clock_policy_gives_second_chance():
    cluster = build(endpoint_frames=2, replacement_policy="clock")
    drv = cluster.node(0).driver
    eps = resident_pair(cluster, drv)
    eps[0].referenced = True   # recently touched: spared, bit cleared
    eps[1].referenced = False  # hand stops here
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    assert eps[1].residency is Residency.ONHOST_RO
    assert eps[0].resident
    assert eps[0].referenced is False  # the sweep consumed its chance


def test_active_preference_spares_endpoint_with_queued_work():
    """LRU would evict eps[0]; active-preference sees its pending work."""
    cluster = build(endpoint_frames=2, replacement_policy="active-preference")
    drv = cluster.node(0).driver
    eps = resident_pair(cluster, drv)
    eps[0].last_active_ns = 0                     # the LRU victim...
    eps[0].mr_requested = True                    # ...but it has queued work
    eps[1].last_active_ns = cluster.sim.now       # recently active, yet idle
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    assert eps[1].residency is Residency.ONHOST_RO
    assert eps[0].resident


# ======================================================= residency scoreboard
def test_scoreboard_counts_remaps_and_evictions():
    cluster = build(endpoint_frames=2)
    drv = cluster.node(0).driver
    eps = resident_pair(cluster, drv)
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    cluster.run(until=cluster.sim.now + ms(40))
    sb = drv.scoreboard
    assert sb.remaps == drv.stats.remaps == 3
    assert sb.evictions == 1
    assert sb.eviction_remap_ratio == pytest.approx(1 / 3)
    snap = sb.snapshot()
    assert snap["remaps"] == 3 and snap["evictions"] == 1


def test_eviction_bounce_scored_on_prompt_refault():
    """An evict->refault inside the bounce window counts as thrash."""
    cluster = build(endpoint_frames=2)
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.write_fault(ep), "f")
    cluster.run(until=cluster.sim.now + ms(20))
    assert ep.resident
    assert drv.force_evict(ep)
    while ep.evicted_at_ns < 0:  # step until the unload lands
        cluster.run(until=cluster.sim.now + us(10))
    assert not ep.resident
    drv.request_remap(ep)  # immediately re-requested: a bounce
    assert drv.scoreboard.bounced_evictions == 1
    cluster.run(until=cluster.sim.now + ms(40))
    assert ep.resident
    assert drv.scoreboard.thrash_score > 0.0


def test_only_the_remap_thread_releases_its_cpu_lease(monkeypatch):
    """``force_evict``'s evictor and a ``free_endpoint`` caller wait for
    the NI's unload under identities of their own: releasing the remap
    thread's lease from another process would hand its CPU away."""
    cluster = build()
    sim, drv = cluster.sim, cluster.node(0).driver
    a, b = alloc(cluster, 0), alloc(cluster, 0, tag=2)
    for ep in (a, b):
        cluster.run_process(drv.write_fault(ep), "f")
    cluster.run(until=sim.now + ms(20))
    assert a.resident and b.resident
    releases = []
    release_lease = Cpu.release_lease

    def spy(cpu, owner):
        releases.append((owner, sim._current))
        release_lease(cpu, owner)

    monkeypatch.setattr(Cpu, "release_lease", spy)
    assert drv.force_evict(a)
    cluster.run(until=sim.now + ms(5))
    cluster.run_process(drv.free_endpoint(b), "free")
    assert not a.resident and b.residency is Residency.FREED
    assert {p.name for _, p in releases} >= {"drv0.evict", "free"}
    assert all(p is drv._remap_thread
               for owner, p in releases if owner is drv._remap_owner)


def test_slow_refault_is_not_a_bounce():
    cluster = build(endpoint_frames=2)
    drv = cluster.node(0).driver
    ep = alloc(cluster, 0)
    cluster.run_process(drv.write_fault(ep), "f")
    cluster.run(until=cluster.sim.now + ms(20))
    assert drv.force_evict(ep)
    cluster.run(until=cluster.sim.now + ms(30))  # well past the window
    drv.request_remap(ep)
    assert drv.scoreboard.bounced_evictions == 0


def test_new_residency_knobs_validate():
    import pytest

    with pytest.raises(ValueError, match="unknown replacement policy"):
        ClusterConfig(replacement_policy="fifo").validate()


def test_api_facade_lists_policies():
    from repro.api import describe

    policies = describe()["replacement_policies"]
    assert policies == sorted(policies)
    assert {"random", "lru", "clock", "active-preference"} <= set(policies)
