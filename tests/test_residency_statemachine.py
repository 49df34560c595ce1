"""Seeded random exerciser for the endpoint-residency state machine.

The residency protocol (Figure 2) is driven by three concurrent agents —
application threads, the segment driver's kernel threads, and the NI
firmware — so its failure modes are interleaving bugs: a victim chosen
while mid-transition, a ``wait_resident`` waiter never woken because the
endpoint was freed, a frame resurrected by a load that raced a free.
These tests drive random operation sequences (alloc / free / write
fault / force-evict / real cross-node traffic) against a 2-frame node
and check the invariants that every interleaving must preserve:

* resident endpoints never exceed ``endpoint_frames``, each occupying a
  distinct frame that maps back to it;
* replacement policies are only ever offered sane candidates — resident,
  not quiescing, not mid-transition, not freed;
* every ``wait_resident`` event is eventually triggered (no lost
  wakeups), including when the endpoint is freed instead of loaded;
* ``force_evict`` racing an in-flight ``_make_resident`` resolves — the
  system settles with no endpoint stuck in ``transition``;
* a free racing an in-flight load does not resurrect the endpoint into
  a frame (the frame is released and the NI forgets the endpoint).

Each case is deterministic per seed; failures reproduce exactly.
"""

import random

import pytest

from repro.am.vnet import new_endpoint
from repro.cluster import Cluster, ClusterConfig
from repro.nic import Residency
from repro.sim import ms, us

FRAMES = 2


def build(**kw):
    kw.setdefault("num_hosts", 2)
    kw.setdefault("endpoint_frames", FRAMES)
    kw.setdefault("ep_alloc_us", 50.0)
    kw.setdefault("dead_timeout_ms", 20.0)
    return Cluster(ClusterConfig(**kw))


def spy_on_victims(drv):
    """Wrap the driver's policy so every victim choice is sanity-checked.

    Policies see integer row ids; the spy materializes the flyweight view
    for each candidate to assert the same eligibility invariants as ever.
    """
    chosen = []
    orig = drv.policy.choose_row
    table = drv.policy.table

    def checked_choose(candidates):
        assert candidates, "policy must never see an empty candidate list"
        for r in candidates:
            c = table.views[r]
            assert c is not None, f"row {r} offered as victim without a view"
            assert c.resident, f"ep{c.ep_id} offered as victim but not resident"
            assert not c.transition, f"ep{c.ep_id} offered as victim mid-transition"
            assert not c.quiescing, f"ep{c.ep_id} offered as victim while quiescing"
            assert c.residency is not Residency.FREED
        victim = orig(candidates)
        assert victim in candidates
        chosen.append(table.ep_id[victim])
        return victim

    drv.policy.choose_row = checked_choose
    return chosen


def frame_occupants(nic):
    """The endpoint views occupying ``nic``'s frames (loads included)."""
    t = nic.table
    return [t.views[r] for r in t.frame_rows if r >= 0]


def assert_frame_invariants(nic, frames=FRAMES):
    t = nic.table
    resident = [ep for ep in nic.endpoints.values() if ep.residency is Residency.ONNIC_RW]
    assert len(resident) <= frames
    for ep in resident:
        assert ep.frame is not None
        assert t.frame_rows[ep.frame] == ep.row
        assert t.views[ep.row] is ep
    occupied = [r for r in t.frame_rows if r >= 0]
    assert len(set(occupied)) == len(occupied)
    # a loaded occupant's own frame is the one it occupies (a reserved
    # frame of a load still in flight has no ep.frame yet)
    for f, r in enumerate(t.frame_rows):
        if r >= 0 and t.views[r].frame is not None:
            assert t.views[r].frame == f


class Exerciser:
    """One seeded random run against node 0's driver."""

    def __init__(self, seed, policy="random", nops=60):
        self.cluster = build(seed=seed, replacement_policy=policy)
        self.sim = self.cluster.sim
        self.node = self.cluster.node(0)
        self.drv = self.node.driver
        self.nic = self.node.nic
        self.rng = random.Random(seed)
        self.nops = nops
        self.victims = spy_on_victims(self.drv)
        self.live = []
        self.waiters = []  # (ep, wait_resident event)
        self.next_tag = 1
        # a client on node 1 generates real NACK->proxy-fault traffic
        self.cep = self.cluster.run_process(
            new_endpoint(self.cluster.node(1), tag=7), "sm.cep"
        )
        self.cproc = self.cluster.node(1).start_process("sm.client")

    # ------------------------------------------------------------------ ops
    def op_alloc(self):
        tag = self.next_tag
        self.next_tag += 1
        ep = self.cluster.run_process(self.drv.alloc_endpoint(tag=tag), "sm.alloc")
        self.live.append(ep)
        self.cep.map(ep.ep_id, (0, ep.ep_id), key=tag)

    def op_free(self):
        if not self.live:
            return
        ep = self.live.pop(self.rng.randrange(len(self.live)))
        self.cluster.run_process(self.drv.free_endpoint(ep), "sm.free")

    def op_fault(self):
        if not self.live:
            return
        ep = self.rng.choice(self.live)
        self.cluster.run_process(self.drv.write_fault(ep), "sm.fault")

    def op_force_evict(self):
        resident = [e for e in self.live if e.resident]
        if resident:
            self.drv.force_evict(self.rng.choice(resident))

    def op_traffic(self):
        if not self.live:
            return
        ep = self.rng.choice(self.live)
        cep = self.cep

        def body(thr):
            yield from cep.request(thr, ep.ep_id, None, nbytes=0)

        self.cproc.spawn_thread(body, name="sm.traffic")

    def op_wait_resident(self):
        if not self.live:
            return
        ep = self.rng.choice(self.live)
        self.waiters.append((ep, self.drv.wait_resident(ep)))

    # ------------------------------------------------------------------ run
    def run(self):
        # Deterministic prologue: overcommit the two frames so every seed
        # exercises the eviction path, not just the ones that happen to.
        for _ in range(FRAMES + 1):
            self.op_alloc()
        for ep in list(self.live):
            self.cluster.run_process(self.drv.write_fault(ep), "sm.fault")
            self.cluster.run(until=self.sim.now + ms(5))

        ops = [
            self.op_alloc,
            self.op_free,
            self.op_fault,
            self.op_fault,
            self.op_force_evict,
            self.op_traffic,
            self.op_traffic,
            self.op_wait_resident,
        ]
        for _ in range(self.nops):
            self.rng.choice(ops)()
            # interleave at sub-remap-latency granularity so ops land in
            # the middle of quiesce/unload/load windows
            self.cluster.run(until=self.sim.now + us(self.rng.choice([20, 100, 800])))
            assert_frame_invariants(self.nic)

        # Epilogue: free everything, settle, and audit the endgame.
        for ep in list(self.live):
            self.cluster.run_process(self.drv.free_endpoint(ep), "sm.free")
        self.live.clear()
        self.cluster.run(until=self.sim.now + ms(60))

        assert self.drv.stats.evictions >= 1, "run never exercised replacement"
        assert self.victims, "run never consulted the replacement policy"
        for ep, ev in self.waiters:
            assert ev.triggered, (
                f"lost wakeup: wait_resident(ep{ep.ep_id}) never triggered "
                f"(residency={ep.residency})"
            )
        for ep in frame_occupants(self.nic):
            assert ep.residency is not Residency.FREED, (
                f"freed ep{ep.ep_id} resurrected into a frame"
            )
        for ep_id, ep in self.nic.endpoints.items():
            assert ep.residency is not Residency.FREED
        assert_frame_invariants(self.nic)


@pytest.mark.parametrize("seed", range(6))
def test_random_interleavings_preserve_invariants(seed):
    Exerciser(seed=seed).run()


@pytest.mark.parametrize("policy", ["lru", "clock", "active-preference"])
def test_random_interleavings_per_policy(policy):
    Exerciser(seed=1999, policy=policy).run()


# ------------------------------------------------- targeted race regressions
def test_force_evict_during_inflight_make_resident_resolves():
    """A forced eviction racing the remap thread's load must settle."""
    cluster = build()
    sim = cluster.sim
    drv = cluster.node(0).driver
    eps = [cluster.run_process(drv.alloc_endpoint(tag=i + 1), "a") for i in range(3)]
    for ep in eps[:2]:
        cluster.run_process(drv.write_fault(ep), "f")
        cluster.run(until=sim.now + ms(20))
    assert all(e.resident for e in eps[:2])

    # Fault the third endpoint, then keep force-evicting whatever is
    # resident while its make-resident is in flight.
    cluster.run_process(drv.write_fault(eps[2]), "f3")
    for _ in range(40):
        cluster.run(until=sim.now + us(100))
        for e in eps:
            if e.resident:
                drv.force_evict(e)
    cluster.run(until=sim.now + ms(100))

    assert all(not e.transition for e in eps), "endpoint stuck in transition"
    assert all(not e.quiescing for e in eps), "endpoint stuck quiescing"
    # The machine still works: a fresh fault makes the endpoint resident.
    cluster.run_process(drv.write_fault(eps[2]), "f4")
    drv.request_remap(eps[2])
    cluster.run(until=sim.now + ms(50))
    assert eps[2].resident


def test_free_during_inflight_load_does_not_resurrect():
    """Freeing an endpoint mid-load must release the reserved frame."""
    cluster = build()
    sim = cluster.sim
    drv = cluster.node(0).driver
    nic = cluster.node(0).nic
    ep = cluster.run_process(drv.alloc_endpoint(tag=1), "a")
    cluster.run_process(drv.write_fault(ep), "f")
    # Step in small increments until the load transition starts, then
    # free while the SBus DMA is in flight.
    for _ in range(500):
        if ep.transition:
            break
        cluster.run(until=sim.now + us(10))
    assert ep.transition, "load never started"
    cluster.run_process(drv.free_endpoint(ep), "free")
    cluster.run(until=sim.now + ms(50))

    assert ep.residency is Residency.FREED
    assert all(f is not ep for f in frame_occupants(nic)), "freed endpoint occupies a frame"
    assert nic.free_frame_index() is not None
    assert ep.ep_id not in nic.endpoints


def test_wait_resident_triggers_on_free():
    """Waiters must be released when the endpoint is freed, not leaked."""
    cluster = build()
    drv = cluster.node(0).driver
    ep = cluster.run_process(drv.alloc_endpoint(tag=1), "a")
    ev = drv.wait_resident(ep)
    assert not ev.triggered
    cluster.run_process(drv.free_endpoint(ep), "free")
    cluster.run(until=cluster.sim.now + ms(5))
    assert ev.triggered


def test_wait_resident_on_freed_endpoint_triggers_immediately():
    cluster = build()
    drv = cluster.node(0).driver
    ep = cluster.run_process(drv.alloc_endpoint(tag=1), "a")
    cluster.run_process(drv.free_endpoint(ep), "free")
    ev = drv.wait_resident(ep)
    assert ev.triggered
