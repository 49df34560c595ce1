"""The endpoint segment driver (Section 4).

Endpoint management is cast as a virtual memory problem: endpoints are
memory-mapped objects whose backing store migrates between NI frames
(on-nic r/w), cacheable host memory (on-host r/w and r/o) and the swap
area (on-disk) — the four-state protocol of Figure 2.

Key mechanisms reproduced here:

* **Write faults** move an endpoint from on-host r/o to on-host r/w and
  *schedule* its re-mapping, letting the faulting thread continue
  immediately.  This asynchronous state was added for robustness under
  high re-mapping load (Section 6.4.1) and can be disabled
  (``enable_onhost_rw=False``) to reproduce the single-threaded-server
  collapse ablation.
* **A background remap kernel thread** services re-mapping requests:
  evicting a victim (replacement policy, Section 4.1) when all frames are
  occupied, quiescing and unloading it through the NI, then loading the
  target endpoint.  Victim selection is pluggable
  (:data:`REPLACEMENT_POLICIES`): the paper's ``random`` choice, strict
  ``lru``, a ``clock`` second-chance sweep over the frame array, and an
  ``active-preference`` policy that deprioritizes endpoints with queued
  sends or a pending make-resident request (evicting those is pure
  thrash — they fault straight back in, Section 6.4).  As in the paper,
  a freshly loaded endpoint has no protection window: every eligible
  resident endpoint is a candidate.
* **A residency scoreboard** counts forced and *bounced* evictions (the
  victim re-requested residency within :data:`BOUNCE_NS` of being
  unloaded — the eviction bought nothing) per NIC and reads remaps and
  evictions off :class:`DriverStats`; its evictions-per-remap and thrash
  ratios quantify how close the node is to the Section 6.4 page-thrash
  regime, and ``snapshot()`` reports them.
* **A proxy kernel thread** performs operations on behalf of the NI: the
  arrival of a message for a non-resident endpoint generates a
  software-initiated page fault through the same driver mechanisms.
* **Logical clocks** order events initiated concurrently by the two
  agents, e.g. the driver freeing an endpoint while the NI asks for it to
  be made resident (a stale generation/clock is discarded).

Both kernel threads consume real host CPU, so heavy re-mapping competes
with application threads — the effect behind Figure 6's ST-8 behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..cluster.config import ClusterConfig
from ..hw.host import Cpu
from ..nic.driver_port import DriverOp, LamportClock
from ..nic.endpoint_state import (
    F_MR_REQUESTED,
    F_QUIESCING,
    F_REFERENCED,
    F_TRANSITION,
    RES_FREED,
    EndpointState,
    EndpointTable,
    Residency,
)
from ..nic.firmware import Nic
from ..sim.core import Event, Simulator, us
from ..sim.resources import Gate
from ..sim.rng import RngStreams

__all__ = [
    "SegmentDriver",
    "DriverStats",
    "ResidencyScoreboard",
    "VictimPolicy",
    "REPLACEMENT_POLICIES",
]

#: an eviction counts as *bounced* (wasted — the Section 6.4 thrash
#: signature) if the victim re-requests residency within this window
BOUNCE_NS = us(1_000)


@dataclass
class DriverStats:
    allocs: int = 0
    frees: int = 0
    write_faults: int = 0
    proxy_faults: int = 0
    remaps: int = 0
    evictions: int = 0
    loads: int = 0
    unloads: int = 0
    pageins: int = 0
    pageouts: int = 0
    events_delivered: int = 0
    stale_notifies: int = 0


# ===================================================== replacement policies
class VictimPolicy:
    """Chooses which resident endpoint to evict when all frames are full.

    Policies operate on integer row ids against an
    :class:`~repro.nic.endpoint_state.EndpointTable`'s columns — no
    per-candidate object materialization, which is what lets the fleet
    sweep (:mod:`repro.scale.fleet`) run the same code over 10^5+
    endpoints.  ``choose_row`` receives only *eligible* candidates
    (resident, not quiescing, not in transition, not freed, and allowed
    by the tenant rules) in frame-index order.  It must return one of
    them; the caller never passes an empty list.
    """

    def __init__(self, table: EndpointTable, rng):
        self.table = table
        self.rng = rng

    def choose_row(self, candidates: list[int]) -> int:
        raise NotImplementedError


class RandomPolicy(VictimPolicy):
    """The paper's choice (Section 4.1): uniformly random victim."""

    def choose_row(self, candidates: list[int]) -> int:
        return self.rng.choice(candidates)


class LruPolicy(VictimPolicy):
    """Strict least-recently-active, tie-broken on ``ep_id``.

    The explicit secondary key keeps victim choice deterministic when
    several endpoints share a ``last_active_ns`` (common right after a
    burst of loads, where none has been serviced yet).
    """

    def choose_row(self, candidates: list[int]) -> int:
        la, eid = self.table.last_active, self.table.ep_id
        return min(candidates, key=lambda r: (la[r], eid[r]))


class ClockPolicy(VictimPolicy):
    """Second-chance clock sweep over the NI frame array.

    A hand walks the frames; a candidate with its ``referenced`` bit set
    (the firmware sets it on send service and delivery) gets a second
    chance — the bit is cleared and the hand moves on.  The first
    unreferenced eligible candidate is the victim.  Two full sweeps
    always suffice (the first clears every bit); the LRU fallback is a
    belt-and-braces guarantee of termination.
    """

    def __init__(self, table: EndpointTable, rng):
        super().__init__(table, rng)
        self._hand = 0

    def choose_row(self, candidates: list[int]) -> int:
        t = self.table
        frames = t.frame_rows
        flags = t.flags
        eligible = set(candidates)
        n = len(frames)
        for _ in range(2 * n):
            r = frames[self._hand]
            self._hand = (self._hand + 1) % n
            if r < 0 or r not in eligible:
                continue
            if flags[r] & F_REFERENCED:
                flags[r] &= ~F_REFERENCED
                continue
            return r
        la, eid = t.last_active, t.ep_id
        return min(candidates, key=lambda r: (la[r], eid[r]))


class ActivePreferencePolicy(VictimPolicy):
    """Prefer idle victims (paper-faithful reading of Section 6.4).

    Evicting an endpoint with queued sends, unresolved in-flight
    messages, or a pending make-resident request is pure thrash: it
    faults straight back in, and the eviction bought nothing.  This
    policy ranks such endpoints last and picks the least-recently-active
    idle endpoint (tie-broken on ``ep_id``) when one exists.
    """

    def choose_row(self, candidates: list[int]) -> int:
        t = self.table
        ring, flags, infl = t.ring_used, t.flags, t.inflight
        la, eid = t.last_active, t.ep_id

        def rank(r: int):
            busy = 1 if (ring[r] or flags[r] & F_MR_REQUESTED or infl[r]) else 0
            return (busy, la[r], eid[r])

        return min(candidates, key=rank)


#: victim-selection policies, keyed by the
#: ``ClusterConfig.replacement_policy`` name; ``ClusterConfig.validate``
#: checks the name against it
REPLACEMENT_POLICIES: dict[str, type[VictimPolicy]] = {
    "random": RandomPolicy,
    "lru": LruPolicy,
    "clock": ClockPolicy,
    "active-preference": ActivePreferencePolicy,
}


# ====================================================== residency scoreboard
class ResidencyScoreboard:
    """Per-NIC residency health: bounced/forced evictions and thrash ratios.

    *Thrash* here is the Section 6.4 page-thrash regime: evictions whose
    victim promptly re-requests residency, so the re-mapping machinery
    spins without making progress.  Two ratios:

    ``eviction_remap_ratio``
        evictions per re-mapping — 1.0 means every remap had to evict
        (the frames are permanently oversubscribed);
    ``thrash_score``
        *bounced* evictions per re-mapping — the fraction of re-mapping
        work that was wasted.  An eviction bounces when the victim
        re-requests residency within :data:`BOUNCE_NS` of being
        unloaded: either it still had queued sends (it faults back in
        instantly) or a client re-targeted it before the eviction could
        pay for itself.  This is the policy-sensitive metric — evicting
        hot endpoints bounces, evicting idle ones does not.

    Remaps and evictions have one home, the driver's
    :class:`DriverStats`; the scoreboard reads them from there.
    """

    def __init__(self, stats: DriverStats):
        self.stats = stats
        self.forced_evictions = 0
        self.bounced_evictions = 0

    @property
    def remaps(self) -> int:
        return self.stats.remaps

    @property
    def evictions(self) -> int:
        return self.stats.evictions

    @property
    def eviction_remap_ratio(self) -> float:
        return self.evictions / max(1, self.remaps)

    @property
    def thrash_score(self) -> float:
        return self.bounced_evictions / max(1, self.remaps)

    def snapshot(self) -> dict[str, float]:
        """Flat dict for reporting/JSON (deterministic key order)."""
        return {
            "remaps": self.remaps,
            "evictions": self.evictions,
            "forced_evictions": self.forced_evictions,
            "bounced_evictions": self.bounced_evictions,
            "eviction_remap_ratio": self.eviction_remap_ratio,
            "thrash_score": self.thrash_score,
        }


class SegmentDriver:
    """Per-node endpoint segment driver extending the VM system."""

    def __init__(
        self,
        sim: Simulator,
        cfg: ClusterConfig,
        nic: Nic,
        cpu: Cpu,
        rngs: Optional[RngStreams] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.nic = nic
        self.cpu = cpu
        self.rng = (rngs or RngStreams(cfg.seed)).stream(f"driver{nic.nic_id}")
        self.clock = LamportClock()
        self.stats = DriverStats()
        self.policy = REPLACEMENT_POLICIES[cfg.replacement_policy](nic.table, self.rng)
        self.scoreboard = ResidencyScoreboard(self.stats)

        self.endpoints: dict[int, EndpointState] = {}
        self._next_ep_id = 1
        self._remap_q: Deque[EndpointState] = deque()
        self._remap_gate = Gate(sim, name=f"drv{nic.nic_id}.remap")
        #: events triggered when an endpoint becomes resident (blocked
        #: writers under the enable_onhost_rw=False ablation, and am_wait)
        self._resident_waiters: dict[int, list[Event]] = {}

        #: distinct scheduler identities for the two kernel threads
        self._remap_owner = object()
        self._proxy_owner = object()
        self._remap_thread = sim.spawn(self._remap_loop(), name=f"drv{nic.nic_id}.remap")
        self._proxy_thread = sim.spawn(self._proxy_loop(), name=f"drv{nic.nic_id}.proxy")

    def _kwait(self, owner, waitable):
        """Kernel thread blocking wait: release the CPU lease first."""
        self.cpu.release_lease(owner)
        result = yield waitable
        return result

    # ===================================================== user-facing (gen)
    def alloc_endpoint(self, tag: int = 0, owner=None) -> "Generator":
        """Allocate an endpoint: segment creation + NI registration.

        Generator; returns the new :class:`EndpointState` (initially
        on-host r/o, per Figure 2).  ``owner`` is the calling thread: the
        system call runs in its scheduler context at kernel priority.
        """
        own = owner if owner is not None else object()
        yield from self.cpu.compute(us(self.cfg.ep_alloc_us), owner=own, priority=1)
        ep = EndpointState(
            self.nic.nic_id,
            self._next_ep_id,
            send_ring_depth=self.cfg.send_ring_depth,
            recv_queue_depth=self.cfg.recv_queue_depth,
            tag=tag,
            table=self.nic.table,
        )
        self._next_ep_id += 1
        done = Event(self.sim)
        self.nic.driver_request(DriverOp("alloc", ep, done, clock=self.clock.tick()))
        yield from self._kwait(own, done)
        self.endpoints[ep.ep_id] = ep
        self.stats.allocs += 1
        return ep

    def free_endpoint(self, ep: EndpointState) -> "Generator":
        """Free an endpoint; synchronizes de-allocation with the NI (§4.2)."""
        if ep.residency is Residency.FREED:
            return
        if ep.resident or ep.quiescing:
            yield from self._unload(ep, object())
        ep.residency = Residency.FREED
        ep.generation += 1  # stale NI notifications now discarded
        # An endpoint can never become resident after this point, so any
        # thread parked on it must be released now — leaving it parked
        # would be a lost wakeup (a free racing a write fault under the
        # enable_onhost_rw=False ablation, or an Endpoint.wait/wait_any).
        self._wake_resident_waiters(ep)
        if ep.event_callback is not None:
            ep.event_callback("freed")
        done = Event(self.sim)
        self.nic.driver_request(DriverOp("free", ep, done, clock=self.clock.tick()))
        yield done
        self.endpoints.pop(ep.ep_id, None)
        self.stats.frees += 1

    def write_fault(self, ep: EndpointState, owner=None) -> "Generator":
        """Application wrote a non-resident endpoint (Figure 2 transitions).

        on-host r/o -> on-host r/w (+ schedule re-mapping); on-disk pages
        in first.  With ``enable_onhost_rw`` disabled the faulting thread
        blocks until the endpoint is resident (the original design whose
        collapse Section 6.4.1 describes).
        """
        if ep.residency in (Residency.ONNIC_RW, Residency.FREED):
            return
        if ep.residency is Residency.ONDISK:
            self.stats.pageins += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("ep.pagein", self.nic.nic_id, ep=ep.ep_id)
            yield us(self.cfg.disk_pagein_us)
            ep.residency = Residency.ONHOST_RO
        if ep.residency is Residency.ONHOST_RO:
            self.stats.write_faults += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("ep.writefault", self.nic.nic_id, ep=ep.ep_id)
            own = owner if owner is not None else object()
            yield from self.cpu.compute(us(self.cfg.host_fault_us), owner=own, priority=1)
            if owner is None:
                self.cpu.release_lease(own)
            ep.residency = Residency.ONHOST_RW
        self.request_remap(ep)
        if not self.cfg.enable_onhost_rw:
            # Synchronous fault handling: suspend until resident.
            yield self.wait_resident(ep)

    def pageout(self, ep: EndpointState) -> None:
        """VM page reclamation: on-host r/o endpoints may go to disk."""
        if ep.residency is Residency.ONHOST_RO:
            ep.residency = Residency.ONDISK
            self.stats.pageouts += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("ep.pageout", self.nic.nic_id, ep=ep.ep_id)

    def wait_resident(self, ep: EndpointState) -> Event:
        """Event triggered when ``ep`` reaches on-nic r/w (or is freed:
        waiters are released rather than leaked — they must re-check the
        residency state on wakeup)."""
        ev = Event(self.sim)
        if ep.resident or ep.residency is Residency.FREED:
            ev.trigger(None)
        else:
            self._resident_waiters.setdefault(ep.ep_id, []).append(ev)
        return ev

    def _wake_resident_waiters(self, ep: EndpointState) -> None:
        for ev in self._resident_waiters.pop(ep.ep_id, []):
            ev.trigger(None)

    # ========================================================== remap engine
    def request_remap(self, ep: EndpointState) -> None:
        """Queue an endpoint for the background remap thread."""
        if ep.resident or ep.transition or ep.residency is Residency.FREED:
            return
        if ep not in self._remap_q:
            if ep.evicted_at_ns >= 0:
                # First residency request since the last eviction: if it
                # comes inside the bounce window, that eviction was thrash
                # (Section 6.4 — the victim fell straight back in).
                if self.sim.now - ep.evicted_at_ns <= BOUNCE_NS:
                    self.scoreboard.bounced_evictions += 1
                ep.evicted_at_ns = -1
            self._remap_q.append(ep)
            self._remap_gate.set()

    def _remap_loop(self):
        cfg = self.cfg
        while True:
            if not self._remap_q:
                self._remap_gate.clear()
                yield from self._kwait(self._remap_owner, self._remap_gate.wait())
                # Periodic servicing (Section 4.2): the thread wakes and
                # scans; model the wake-to-scan delay.
                yield from self._kwait(self._remap_owner, us(cfg.remap_scan_period_us))
                continue
            ep = self._remap_q.popleft()
            if ep.resident or ep.transition or ep.residency is Residency.FREED:
                continue
            yield from self._make_resident(ep)

    def _make_resident(self, ep: EndpointState):
        """Bind an endpoint to an NI frame, evicting if necessary (§4.1)."""
        cfg = self.cfg
        ep.transition = True
        remap_start = self.sim.now
        yield from self.cpu.compute(us(cfg.remap_driver_overhead_us / 2), owner=self._remap_owner, priority=1)
        # off-CPU synchronization latency of the re-mapping (§4.2)
        yield from self._kwait(self._remap_owner, us(cfg.remap_sync_latency_us))
        frame = self.nic.free_frame_index()
        if frame is None:
            victim = self._choose_victim(ep)
            if victim is None:
                # Everything is quiescing, in transition, or protected by
                # a tenant reservation; retry shortly.
                ep.transition = False
                self.sim.schedule(us(cfg.remap_scan_period_us), self.request_remap, ep)
                return
            yield from self._unload(victim, self._remap_owner)
            self.stats.evictions += 1
            self._attribute_eviction(ep, victim)
            if self.sim.trace.enabled:
                self.sim.trace.emit("ep.evict", self.nic.nic_id, ep=victim.ep_id,
                                    for_ep=ep.ep_id)
            # A victim unloaded with queued work faults straight back in
            # (Section 6.4); request_remap scores that as a bounce.
            if victim.send_ring or victim.mr_requested:
                self.request_remap(victim)
            frame = self.nic.free_frame_index()
            if frame is None:
                ep.transition = False
                self.request_remap(ep)
                return
        if ep.residency is Residency.FREED:
            ep.transition = False
            self._wake_resident_waiters(ep)
            return
        done = Event(self.sim)
        self.nic.driver_request(DriverOp("load", ep, done, clock=self.clock.tick(), frame=frame))
        yield from self._kwait(self._remap_owner, done)
        if ep.residency is Residency.FREED:
            # Freed while the load DMA was in flight: the NI declined the
            # load; nothing became resident.
            self._wake_resident_waiters(ep)
            return
        self.stats.loads += 1
        self.stats.remaps += 1
        yield from self.cpu.compute(us(cfg.remap_driver_overhead_us / 2), owner=self._remap_owner, priority=1)
        if self.sim.trace.enabled:
            self.sim.trace.emit("drv.remap", self.nic.nic_id, ep=ep.ep_id,
                                dur_ns=self.sim.now - remap_start)
        self._wake_resident_waiters(ep)

    def _choose_victim(self, requester: Optional[EndpointState] = None) -> Optional[EndpointState]:
        """Pick an eviction victim via the configured policy (§4.1).

        Every resident endpoint that is not quiescing, in transition or
        freed is a candidate, however recently it was loaded: the paper's
        replacement has no protection window.

        Tenant isolation (two hard rules, applied before the policy):

        * **Reservation veto** — a cross-tenant candidate may not be
          evicted if doing so would drop its tenant at or below its
          ``frame_reservation`` on this NIC.  A tenant may still evict
          *its own* endpoints below its reservation (it is spending its
          own guarantee).
        * **Quota self-paging** — a requester whose tenant already holds
          ``frame_quota`` frames on this NIC may only victimize that
          tenant's own endpoints.

        Either rule may empty the candidate list; the driver then retries
        after ``remap_scan_period_us`` rather than violating a guarantee
        (``TenantRegistry.validate_against`` keeps reservations
        co-satisfiable, so the retry always terminates once frames drain).
        """
        req_tenant = requester.tenant if requester is not None else None
        node = self.nic.nic_id
        t = self.nic.table
        flags, res = t.flags, t.res
        # Candidate rows come straight off the frame_rows column in
        # frame-index order; no per-candidate view objects are built.
        candidates = [
            r
            for r in t.frame_rows
            if r >= 0
            and not (flags[r] & (F_QUIESCING | F_TRANSITION))
            and res[r] != RES_FREED
        ]
        if not candidates:
            return None
        tenant_ref = t.tenant_ref
        if req_tenant is not None and req_tenant.spec.frame_quota is not None:
            if req_tenant.frames_held(node) >= req_tenant.spec.frame_quota:
                candidates = [r for r in candidates if tenant_ref[r] is req_tenant]
                if not candidates:
                    return None
        vetoed = 0
        allowed = []
        for r in candidates:
            ct = tenant_ref[r]
            if (ct is not None and ct is not req_tenant
                    and ct.frames_held(node) <= ct.spec.frame_reservation):
                ct.stats.reservation_vetoes += 1
                vetoed += 1
                continue
            allowed.append(r)
        if vetoed and self.sim.trace.enabled:
            self.sim.trace.emit("tenant.veto", node, count=vetoed)
        if not allowed:
            return None
        return t.views[self.policy.choose_row(allowed)]

    def _attribute_eviction(self, requester: EndpointState, victim: EndpointState) -> None:
        """Per-tenant eviction attribution (who caused / who suffered)."""
        rt = requester.tenant
        vt = victim.tenant
        if vt is not None and vt is not rt:
            vt.stats.evictions_suffered += 1
        if rt is not None:
            if vt is rt:
                rt.stats.quota_self_evictions += 1
            else:
                rt.stats.evictions_caused += 1

    def force_evict(self, ep: EndpointState) -> bool:
        """Forcibly unload a resident endpoint (chaos adversary: eviction
        under synthetic frame pressure, Section 4.1's replacement path
        without a competing endpoint).  Returns True if an unload started;
        traffic arriving meanwhile draws NOT_RESIDENT NACKs and the NI's
        make-resident request faults the endpoint back in.
        """
        if not ep.resident or ep.transition or ep.quiescing:
            return False
        if ep.residency is Residency.FREED:
            return False

        def evictor():
            yield from self._unload(ep, object())
            self.stats.evictions += 1
            self.scoreboard.forced_evictions += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("ep.evict", self.nic.nic_id, ep=ep.ep_id,
                                    forced=True)
            # Queued work faults it straight back in, like an evicted
            # victim with a non-empty ring (Section 6.4's thrash).
            if ep.send_ring or ep.mr_requested:
                self.request_remap(ep)

        self.sim.spawn(evictor(), name=f"drv{self.nic.nic_id}.evict")
        return True

    def _unload(self, ep: EndpointState, owner):
        """Quiesce and unload an endpoint (the NI handles the draining).

        ``owner`` is the calling process's scheduler identity: the remap
        thread's own, or a fresh one for any other caller, which must
        never release the remap thread's CPU lease.
        """
        ep.transition = True
        done = Event(self.sim)
        self.nic.driver_request(DriverOp("unload", ep, done, clock=self.clock.tick()))
        yield from self._kwait(owner, done)
        ep.transition = False
        ep.evicted_at_ns = self.sim.now  # start of the bounce window
        self.stats.unloads += 1

    # ============================================================ proxy loop
    def _proxy_loop(self):
        """Consume NI->driver notifications (Section 4.2's proxy thread)."""
        cfg = self.cfg
        while True:
            note = yield from self._kwait(self._proxy_owner, self.nic.to_driver.get())
            self.clock.observe(note.clock)
            ep = self.endpoints.get(note.ep_id)
            if ep is None or ep.generation != note.generation or ep.residency is Residency.FREED:
                # Race resolved by generation + logical clock (§4.3): the
                # endpoint was freed while the notification was in flight.
                self.stats.stale_notifies += 1
                continue
            if note.kind == "make_resident":
                # Simulate the effect of a page fault with no faulting
                # instruction: a software-initiated fault (Section 4.2).
                self.stats.proxy_faults += 1
                if self.sim.trace.enabled:
                    self.sim.trace.emit("drv.proxy_fault", self.nic.nic_id, ep=ep.ep_id)
                yield from self.cpu.compute(us(cfg.proxy_fault_us), owner=self._proxy_owner, priority=1)
                if ep.residency is Residency.ONHOST_RO:
                    ep.residency = Residency.ONHOST_RW
                self.request_remap(ep)
            elif note.kind == "event":
                yield from self.cpu.compute(cfg.event_notify_ns, owner=self._proxy_owner, priority=1)
                self.stats.events_delivered += 1
                if ep.event_callback is not None:
                    ep.event_callback(note.detail)
