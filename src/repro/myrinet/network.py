"""The network fabric: packet traversal with cut-through and backpressure.

A packet holds each link on its route from the moment its head enters
until its tail leaves.  The head advances to the next switch after the
cut-through latency plus header time; if the next link is busy the packet
stalls *while still occupying the upstream link* — the wormhole
backpressure through which "network congestion rapidly spreads through the
network" (Section 2).  Delivery happens when the tail arrives at the
destination NI.

Fault hooks (loss, corruption, link/switch down, node crash) are consulted
on every traversal; see :mod:`repro.myrinet.fault`.

The express path (DESIGN.md, "The express path")
------------------------------------------------

An *uncontended* route is a fixed, precomputable latency: the per-hop
wormhole process exists to model contention, and when there is provably
none it dispatches ~2L+1 kernel events per packet to compute a number
known at send time.  ``Network.send`` therefore commits an **express
flight** — one pooled callback at the precomputed tail-arrival time —
whenever all of the following hold:

* ``cfg.express_path`` is on and the path is currently armed: any
  fault injection, or any direct flip of a link/switch ``up``
  attribute, disarms it and demotes committed flights.  Once every link
  and switch is back up and :data:`EXPRESS_REARM_QUIET_NS` has elapsed
  since the most recent fault event, the next send re-arms the path;
* no wormhole process is in flight *on any link of this route*
  (per-link ``slow_refs`` — a slow packet crossing a disjoint part of
  the fabric does not force a fallback), and every link on the
  (cached) route is idle with no express occupancy claim.

Attaching a trace bus does not change the path taken: both paths emit
the same ``net.deliver``/``net.drop`` records.

Soundness rests on *revocation*: a committed flight's timeline is only
valid while its links stay untouched, so any later send whose route
intersects a flight's links first **revokes** the flight — the delivery
callback is canceled and the flight is replayed as a wormhole process
holding exactly the links, accounting and pending releases the slow path
would have at that instant (`_revoke`/`_resume_traverse`).  Because
revocation runs before the new packet touches any port, FIFO
acquisition order is preserved and the flight's links are guaranteed
re-acquirable.  Delivery timestamps, ``NetworkStats`` and
per-link accounting are bit-identical between modes;
``tests/test_express_path.py`` and ``repro.bench.perf``'s express
on/off oracle enforce this in CI.  Express
bookkeeping lives in the separate :class:`ExpressStats` so
``NetworkStats`` stays mode-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster.config import ClusterConfig
from ..sim.core import SimError, Simulator
from ..sim.rng import RngStreams
from .link import DirectedLink
from .packet import Packet
from .topology import FatTreeTopology

__all__ = ["Network", "NetworkStats", "ExpressStats", "EXPRESS_REARM_QUIET_NS"]

#: quiet period after the most recent fault injection (or direct
#: link/switch flip) before the express path re-arms, provided every link
#: and switch is back up.  Re-arming is sound because loss/corruption are
#: applied before the express attempt and route caching degrades to
#: per-send recomputation once the fabric has ever been reconfigured.
EXPRESS_REARM_QUIET_NS = 200_000


@dataclass
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_linkdown: int = 0
    dropped_noroute: int = 0
    dropped_dead_nic: int = 0
    bytes_delivered: int = 0


@dataclass
class ExpressStats:
    """Express-path bookkeeping — deliberately *not* part of
    :class:`NetworkStats`, which must be identical across modes."""

    #: flights committed (single-callback deliveries scheduled)
    commits: int = 0
    #: flights that reached their delivery callback un-revoked
    delivered: int = 0
    #: loopback sends elided to one callback
    loopback: int = 0
    #: flights demoted back to wormhole processes by a conflicting send
    #: or a fault
    revoked: int = 0
    #: sends that fell back because a route link was occupied or claimed
    fallback_busy: int = 0
    #: sends that fell back because a wormhole process was in flight on
    #: a link of *this* route (or not yet attributable to its links)
    fallback_active: int = 0
    #: times the path re-armed after a quiet period following a fault
    reenabled: int = 0

    def hits(self) -> int:
        return self.commits + self.loopback

    def fallbacks(self) -> int:
        return self.fallback_busy + self.fallback_active


class _ExpressFlight:
    """A committed express delivery: a precomputed wormhole timeline.

    ``acquire_at(j)`` / ``free_at(j)`` reproduce exactly when the slow
    path would acquire and release link ``j`` on an uncontended route;
    :meth:`Network._revoke` uses them to reconstruct mid-flight wormhole
    state when the flight must be demoted.
    """

    __slots__ = ("pkt", "route", "nbytes", "t0", "hop_ns", "tail_at", "entry")

    def __init__(self, pkt: Packet, route: list[DirectedLink], nbytes: int,
                 t0: int, hop_ns: int):
        self.pkt = pkt
        self.route = route
        self.nbytes = nbytes
        self.t0 = t0
        self.hop_ns = hop_ns
        self.tail_at = t0 + (len(route) - 1) * hop_ns + route[-1].wire_ns(nbytes)
        self.entry: Optional[list] = None  # delivery heap entry (cancelable)

    def acquire_at(self, j: int) -> int:
        return self.t0 + j * self.hop_ns

    def free_at(self, j: int) -> int:
        if j == len(self.route) - 1:
            return self.tail_at
        return max(self.acquire_at(j + 1),
                   self.acquire_at(j) + self.route[j].wire_ns(self.nbytes))


class Network:
    """Connects NICs through a :class:`FatTreeTopology`."""

    def __init__(self, sim: Simulator, cfg: ClusterConfig, rngs: Optional[RngStreams] = None):
        self.sim = sim
        self.cfg = cfg
        self.topology = FatTreeTopology(sim, cfg)
        self.rng = (rngs or RngStreams(cfg.seed)).stream("network.fault")
        #: flattened rx dispatch: slot per NIC id (None = not attached)
        self._rx: list[Optional[Callable[[Packet], None]]] = [None] * cfg.num_hosts
        self._dead_nics: set[int] = set()
        self.stats = NetworkStats()
        self.express = ExpressStats()
        #: loopback delivery cost (NI-internal, no wire)
        self.loopback_ns = cfg.lanai_ns(40)
        #: per-hop head advance: cut-through + cable + header serialization
        self._hop_ns = (cfg.switch_latency_ns + cfg.cable_latency_ns
                        + round(cfg.packet_header_bytes * cfg.link_byte_ns))
        #: express engages while armed; faults disarm it and a healthy,
        #: quiet fabric re-arms it later
        self._express_configured = bool(cfg.express_path)
        self._express_enabled = self._express_configured
        #: earliest time the path may re-arm (None = nothing pending)
        self._rearm_at: Optional[int] = None
        #: id()s of links/switches currently administratively down
        self._down: set[int] = set()
        self._flights: list[_ExpressFlight] = []
        #: slow sends spawned but not yet attributed to their route's
        #: links (the window between send() and the process's first step)
        self._slow_pending = 0
        # Observe every administrative state flip, however it happens.
        for sw in self.topology.switches:
            sw.on_state_change = self._fabric_changed
        for link in self.topology.all_links:
            link.on_state_change = self._fabric_changed

    # ------------------------------------------------------------ wiring
    def attach(self, nic_id: int, rx_handler: Callable[[Packet], None]) -> None:
        """Register the receive handler for a NIC (called on tail arrival)."""
        if not (0 <= nic_id < self.cfg.num_hosts):
            raise ValueError(f"NIC id {nic_id} out of range")
        if self._rx[nic_id] is not None:
            raise ValueError(f"NIC {nic_id} already attached")
        self._rx[nic_id] = rx_handler

    def detach(self, nic_id: int) -> None:
        """Unregister a NIC's receive handler (inverse of :meth:`attach`).

        Crash/reboot cycles and session teardown use this so handlers
        are never leaked and a rebooted NIC can re-attach.  Packets in
        flight to a detached NIC are dropped at delivery exactly like
        packets to a dead NIC.
        """
        if not (0 <= nic_id < self.cfg.num_hosts):
            raise ValueError(f"NIC id {nic_id} out of range")
        if self._rx[nic_id] is None:
            raise ValueError(f"NIC {nic_id} not attached")
        self._rx[nic_id] = None

    def attached(self, nic_id: int) -> bool:
        return 0 <= nic_id < self.cfg.num_hosts and self._rx[nic_id] is not None

    def set_nic_dead(self, nic_id: int, dead: bool = True) -> None:
        """Mark a NIC crashed: packets addressed to it vanish."""
        if dead:
            self._dead_nics.add(nic_id)
        else:
            self._dead_nics.discard(nic_id)

    # ----------------------------------------------------- express control
    @property
    def express_active(self) -> bool:
        """True while the express path may still commit flights."""
        return self._express_enabled

    def on_fault(self) -> None:
        """Any fault injection disarms the express path and demotes
        committed flights to wormhole processes (conservative: the
        equivalence argument then holds trivially for everything after
        the injection).  The disarm is hysteretic rather than sticky: a
        quiet period of :data:`EXPRESS_REARM_QUIET_NS` after the *latest*
        fault, with every link and switch back up, re-arms the path on
        the next send — so one transient flap does not demote the
        remainder of a long run."""
        if self._express_configured:
            self._rearm_at = self.sim.now + EXPRESS_REARM_QUIET_NS
        if self._express_enabled:
            self._express_enabled = False
            while self._flights:
                self._revoke(self._flights[0])

    def _fabric_changed(self, obj) -> None:
        # A switch or link flipped state (fault injector or a test poking
        # ``.up`` directly): cached routes are stale and every committed
        # flight's timeline is suspect.
        self.topology.mark_dirty()
        if obj.up:
            self._down.discard(id(obj))
        else:
            self._down.add(id(obj))
        self.on_fault()

    def _express_ready(self) -> bool:
        """Whether a send made now may commit an express flight.

        Re-arms a disarmed path first once its quiet window has passed
        on a healthy fabric.  Tracing plays no part: the fabric emits
        the same ``net.*`` records on both paths."""
        if (self._rearm_at is not None and not self._down
                and self.sim.now >= self._rearm_at):
            self._express_enabled = True
            self._rearm_at = None
            self.express.reenabled += 1
        return self._express_enabled

    # ------------------------------------------------------------- sending
    def send(self, pkt: Packet) -> None:
        """Inject a packet; returns immediately (transit is asynchronous)."""
        self.stats.sent += 1
        if self.cfg.packet_loss_prob and self.rng.random() < self.cfg.packet_loss_prob:
            self.stats.dropped_loss += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("net.drop", pkt.src_nic, msg=pkt.msg_id,
                                    dst=pkt.dst_nic, reason="loss")
            return
        if self.cfg.packet_corrupt_prob and self.rng.random() < self.cfg.packet_corrupt_prob:
            pkt.corrupted = True
        express = self._express_ready()
        sim = self.sim
        if pkt.src_nic == pkt.dst_nic:
            if express:
                # A blocked receive FIFO has no upstream link to
                # backpressure on loopback, so a pending waitable is
                # simply not waited on — the slow path's waiting process
                # has no further effects either.
                sim.call_after(self.loopback_ns, self._deliver, pkt)
                self.express.loopback += 1
            else:
                sim.spawn(self._traverse_loopback(pkt), name=f"pkt{pkt.xmit_id}")
            return
        if express:
            route = self.topology.cached_route(pkt.src_nic, pkt.dst_nic, pkt.channel)
            # no route: the slow path owns the noroute drop accounting
            if route is not None:
                self._revoke_claims(route)
                if self._try_commit(pkt, route):
                    return
        # Counted *before* the process first runs so a same-tick express
        # attempt cannot miss it; the process converts the pending count
        # into per-link slow_refs once it knows its route.
        self._slow_pending += 1
        sim.spawn(self._traverse(pkt), name=f"pkt{pkt.xmit_id}")

    # ------------------------------------------------------- express path
    def _revoke_claims(self, links) -> None:
        # A committed flight claiming any of these links must be demoted
        # first: the new packet may contend, which its frozen timeline
        # cannot absorb.  Revoking *before* this packet touches any port
        # preserves FIFO acquisition order.
        for link in links:
            if link.express_flight is not None:
                self._revoke(link.express_flight)

    def _try_commit(self, pkt: Packet, route: list[DirectedLink]) -> bool:
        if self._slow_pending:
            # A slow send was just spawned and has not yet published its
            # route; it could be headed for any link, so be conservative.
            self.express.fallback_active += 1
            return False
        now = self.sim.now
        for link in route:
            if link.slow_refs:
                self.express.fallback_active += 1
                return False
            if not link._port.idle or link.busy_until > now:
                self.express.fallback_busy += 1
                return False
        nbytes = pkt.wire_bytes(self.cfg.packet_header_bytes)
        fl = _ExpressFlight(pkt, route, nbytes, now, self._hop_ns)
        for j, link in enumerate(route):
            link.express_flight = fl
            link.busy_until = fl.free_at(j)
        fl.entry = self.sim.call_after(fl.tail_at - now, self._express_fire, fl)
        self._flights.append(fl)
        self.express.commits += 1
        return True

    def _express_fire(self, fl: _ExpressFlight) -> None:
        """The single delivery callback of an un-revoked flight."""
        self._flights.remove(fl)
        route, nbytes = fl.route, fl.nbytes
        for link in route:
            link.express_flight = None
            link.busy_until = 0
        last_j = len(route) - 1
        # Per-link accounting in exactly the slow path's amounts.
        for j in range(last_j):
            route[j].account(nbytes, fl.free_at(j) - fl.acquire_at(j))
        pending = self._deliver(fl.pkt)
        last = route[last_j]
        if pending is None:
            last.account(nbytes, self.sim.now - fl.acquire_at(last_j))
        else:
            # Receive FIFO full: hold the last link for real until the
            # NIC drains, so congestion backs into the fabric exactly
            # like the wormhole path ("congestion rapidly spreads").
            if not last.try_acquire():
                raise SimError(f"express flight lost its tail link {last.name}")
            self.sim.spawn(self._express_drain(fl, last, pending),
                           name=f"pkt{fl.pkt.xmit_id}")
        self.express.delivered += 1

    def _express_drain(self, fl: _ExpressFlight, last: DirectedLink, pending):
        yield pending
        last.account(fl.nbytes, self.sim.now - fl.acquire_at(len(fl.route) - 1))
        last.release()

    def _revoke(self, fl: _ExpressFlight) -> None:
        """Demote a committed flight to a wormhole process, reconstructing
        exactly the state the slow path would be in right now: links the
        virtual head has exited are accounted (and, while still inside
        their occupancy window, re-held with their release pre-scheduled);
        the link the head currently occupies is re-acquired and a
        continuation process resumes the traversal mid-hop."""
        sim = self.sim
        fl.entry[3] = None  # cancel the pending delivery callback
        fl.entry = None
        self._flights.remove(fl)
        route, nbytes = fl.route, fl.nbytes
        for link in route:
            link.express_flight = None
            link.busy_until = 0
        now = sim.now
        m = min((now - fl.t0) // fl.hop_ns, len(route) - 1)
        acquired_at = [fl.acquire_at(j) for j in range(m + 1)]
        for j in range(m):
            fa = fl.free_at(j)
            route[j].account(nbytes, fa - fl.acquire_at(j))
            if fa > now:
                if not route[j].try_acquire():
                    raise SimError(f"express flight lost held link {route[j].name}")
                sim.call_after(fa - now, route[j].release)
        if not route[m].try_acquire():
            raise SimError(f"express flight lost head link {route[m].name}")
        # The resumed wormhole can still contend on the links it has not
        # exited yet; links already fully freed stay unmarked.
        for link in route[m:]:
            link.slow_refs += 1
        self.express.revoked += 1
        sim.spawn(self._resume_traverse(fl, m, acquired_at), name=f"pkt{fl.pkt.xmit_id}")

    def _resume_traverse(self, fl: _ExpressFlight, m: int, acquired_at: list[int]):
        route = fl.route
        held = [route[m]]
        try:
            if m < len(route) - 1:
                # The wormhole would be mid-hop: inside the timeout begun
                # when link m was acquired.
                wake = fl.acquire_at(m) + fl.hop_ns
                if wake > self.sim.now:
                    yield self.sim.timeout(wake - self.sim.now)
            yield from self._run_route(fl.pkt, route, fl.nbytes, m + 1,
                                       acquired_at, held)
        finally:
            for link in route[m:]:
                link.slow_refs -= 1

    # ----------------------------------------------------------- delivery
    def _deliver(self, pkt: Packet):
        """Hand a packet to the destination NIC.

        Returns None when accepted immediately, or a waitable the caller
        must wait on while the NIC's receive FIFO is full — with the
        upstream link still held, so congestion backs up into the fabric
        (Section 2's "congestion rapidly spreads").
        """
        if pkt.dst_nic in self._dead_nics:
            self.stats.dropped_dead_nic += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("net.drop", pkt.dst_nic, msg=pkt.msg_id,
                                    src=pkt.src_nic, reason="dead_nic")
            return None
        handler = self._rx[pkt.dst_nic]
        if handler is None:
            self.stats.dropped_dead_nic += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("net.drop", pkt.dst_nic, msg=pkt.msg_id,
                                    src=pkt.src_nic, reason="dead_nic")
            return None
        self.stats.delivered += 1
        self.stats.bytes_delivered += pkt.payload_bytes
        if self.sim.trace.enabled:
            self.sim.trace.emit("net.deliver", pkt.dst_nic, msg=pkt.msg_id,
                                src=pkt.src_nic, pkt=pkt.kind.name,
                                nbytes=pkt.payload_bytes)
        return handler(pkt)

    # ------------------------------------------------------ wormhole path
    def _traverse_loopback(self, pkt: Packet):
        yield self.sim.timeout(self.loopback_ns)
        pending = self._deliver(pkt)
        if pending is not None:
            yield pending

    def _traverse(self, pkt: Packet):
        route = self.topology.cached_route(pkt.src_nic, pkt.dst_nic, pkt.channel)
        if route is not None:
            for link in route:
                link.slow_refs += 1
        # Route published (or there is none): stop being "pending".
        self._slow_pending -= 1
        try:
            if route is None:
                self.stats.dropped_noroute += 1
                if self.sim.trace.enabled:
                    self.sim.trace.emit("net.drop", pkt.dst_nic, msg=pkt.msg_id,
                                        src=pkt.src_nic, reason="noroute")
                return
            nbytes = pkt.wire_bytes(self.cfg.packet_header_bytes)
            yield from self._run_route(pkt, route, nbytes, 0, [], [])
        finally:
            if route is not None:
                for link in route:
                    link.slow_refs -= 1

    def _run_route(self, pkt: Packet, route: list[DirectedLink], nbytes: int,
                   start: int, acquired_at: list[int], held: list[DirectedLink]):
        """The wormhole traversal loop from hop ``start`` onward.

        ``acquired_at``/``held`` carry prior-hop state so a revoked
        express flight can resume mid-route with identical behaviour.
        """
        sim = self.sim
        hop_ns = self._hop_ns

        def fail_cleanup() -> None:
            for link in held:
                link.release()
            self.stats.dropped_linkdown += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("net.drop", pkt.dst_nic, msg=pkt.msg_id,
                                    src=pkt.src_nic, reason="linkdown")

        for i in range(start, len(route)):
            link = route[i]
            yield link.acquire()
            if not link.up:
                link.release()
                fail_cleanup()
                return
            held.append(link)
            acquired_at.append(sim.now)
            if i > 0:
                # The head has moved downstream: the upstream link frees
                # once its serialization completes (backpressure already
                # happened implicitly while we waited to acquire).
                prev = route[i - 1]
                prev_busy = prev.wire_ns(nbytes)
                free_at = max(sim.now, acquired_at[i - 1] + prev_busy)
                prev.account(nbytes, free_at - acquired_at[i - 1])
                sim.schedule(free_at - sim.now, prev.release)
                held.remove(prev)
            if i < len(route) - 1:
                yield sim.timeout(hop_ns)

        last = route[-1]
        tail_at = acquired_at[-1] + last.wire_ns(nbytes)
        if tail_at > sim.now:
            yield sim.timeout(tail_at - sim.now)
        if not last.up:
            fail_cleanup()
            return
        # Deliver before releasing: a full receive FIFO keeps the final
        # link occupied, backpressuring the whole path (Section 2).
        pending = self._deliver(pkt)
        if pending is not None:
            yield pending
        last.account(nbytes, sim.now - acquired_at[-1])
        last.release()
        held.remove(last)

    # ------------------------------------------------------------- queries
    def min_latency_ns(self, src: int, dst: int, nbytes_on_wire: int) -> int:
        """Uncongested head-to-tail transit time (for calibration tests)."""
        if src == dst:
            return self.loopback_ns
        route = self.topology.route(src, dst, 0)
        if route is None:
            raise ValueError("no route")
        return (len(route) - 1) * self._hop_ns + route[-1].wire_ns(nbytes_on_wire)
