"""Trace-driven checking of the delivery contract (Section 3.2).

The checker consumes the :class:`repro.obs.TraceBus` timeline of a chaos
run and audits the promises the transport makes to applications:

**I1 — resolution.**  Every message the AM layer accepted (an
``am.request`` or ``am.reply`` event) is eventually resolved: DELIVERED
(``msg.deliver``) or RETURNED to its sender with a non-empty reason
(``msg.return``).  Nothing may vanish.  A message may be *both*
delivered and returned only in the ways a timeout-based return scheme
genuinely permits — the acknowledgment was lost for the whole dead
timeout (reason ``timeout``), the sender rebooted while the ACK was in
flight (``reboot``), or the receiving endpoint was freed between the
delivery and a retransmission (``NO_ENDPOINT``).

**I2 — exactly-once.**  No message is delivered twice.  The one excuse
is a receiver crash/reboot between the two deliveries: the rebooted NI's
duplicate-suppression state is gone by design, and the sender-side
retransmission that follows re-delivers (at-least-once across a crash is
the documented contract, §5.1).  A duplicate *without* an interposed
crash — e.g. a too-small ``dup_window`` letting a late copy past the
copy accounting — is a violation (see ``tests/test_dup_window.py``).

**I3 — per-channel order.**  Each stop-and-wait channel delivers the
messages it carried in the order they were bound to it: sorting a
channel's deliveries by delivery time must also sort them by the time of
each message's last transmission on that channel.  Messages whose
lifetime spans a crash/reboot of either end are skipped (channel state
was reset under them).

**Quiescence.**  Inspected directly on the cluster object at scenario
end: every NI alive with all channels idle and disarmed, no unbound
messages awaiting rebind, no receive-side staging or bulk DMA in flight,
every registered endpoint's rings and queues empty, no express
flight still committed on the fabric, and no host CPU still leased to a
finished thread (``Q.cpu``: its run queue would starve).  A paused or
unfinished workload thread is likewise a violation — the run must end
with nothing armed, nothing blocked, nothing in flight.

**Drop accounting.**  Every fabric drop the network counted
(``NetworkStats.dropped_{loss,linkdown,noroute,dead_nic}``) must have a
matching ``net.drop`` trace event with that reason, and vice versa.
Chaos runs always trace, so a mismatch means a drop site bumped a
counter without emitting (or emitted without counting) — the kind of
silent-loss bug the delivery contract exists to rule out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from ..cluster.builder import Cluster
    from ..obs.events import TraceEvent
    from .workloads import ChaosWorkload

__all__ = ["Violation", "DeliveryChecker", "check_drop_accounting",
           "check_quiescence", "IsolationSLO", "check_isolation",
           "percentile_ns"]

#: the fabric's drop-reason vocabulary (NetworkStats.dropped_* fields)
_DROP_REASONS = ("loss", "linkdown", "noroute", "dead_nic")

#: msg.return reasons that may coexist with a delivery (see module doc)
_DELIVERED_AND_RETURNED_OK = {"timeout", "reboot", "NO_ENDPOINT"}

#: fault actions that reset transport state on the affected node
_RESET_ACTIONS = {"crash", "reboot"}


@dataclass
class Violation:
    invariant: str  # "I1.unresolved" | "I2.duplicate" | "I3.order" | "Q.*" | "M.mode"
    detail: str
    msg_id: Optional[int] = None
    ts: Optional[int] = None

    def __str__(self) -> str:
        at = f" @{self.ts}ns" if self.ts is not None else ""
        who = f" msg={self.msg_id}" if self.msg_id is not None else ""
        return f"[{self.invariant}]{who}{at} {self.detail}"


class DeliveryChecker:
    """Audits one run's event timeline against I1–I3."""

    def __init__(self, events: Iterable["TraceEvent"]):
        self.events = list(events)
        # msg_id -> (first index, ts, node) of acceptance
        self.accepted: dict[int, tuple[int, int, int]] = {}
        # msg_id -> [(index, ts, receiver, sender)]
        self.deliveries: dict[int, list[tuple[int, int, int, int]]] = {}
        # msg_id -> [(index, ts, sender, reason)]
        self.returns: dict[int, list[tuple[int, int, int, str]]] = {}
        # msg_id -> [(index, ts, sender_node, channel)]
        self.txs: dict[int, list[tuple[int, int, int, int]]] = {}
        # msg_id -> [(index, ts, receiver_node, channel)]
        self.rxs: dict[int, list[tuple[int, int, int, int]]] = {}
        # node -> [ts of crash/reboot faults]
        self.resets: dict[int, list[int]] = {}
        self._index()

    def _index(self) -> None:
        for i, ev in enumerate(self.events):
            kind = ev.kind
            if kind in ("am.request", "am.reply"):
                m = ev.get("msg")
                self.accepted.setdefault(m, (i, ev.ts, ev.node))
            elif kind == "msg.deliver":
                self.deliveries.setdefault(ev.get("msg"), []).append(
                    (i, ev.ts, ev.node, ev.get("peer")))
            elif kind == "msg.return":
                self.returns.setdefault(ev.get("msg"), []).append(
                    (i, ev.ts, ev.node, ev.get("reason")))
            elif kind in ("pkt.tx", "pkt.retransmit"):
                self.txs.setdefault(ev.get("msg"), []).append(
                    (i, ev.ts, ev.node, ev.get("ch")))
            elif kind == "pkt.rx":
                self.rxs.setdefault(ev.get("msg"), []).append(
                    (i, ev.ts, ev.node, ev.get("ch")))
            elif kind == "fault.inject" and ev.get("action") in _RESET_ACTIONS:
                self.resets.setdefault(ev.node, []).append(ev.ts)

    # ------------------------------------------------------------- helpers
    def _reset_between(self, node: int, t0: int, t1: int) -> bool:
        return any(t0 <= t <= t1 for t in self.resets.get(node, ()))

    def _spans_reset(self, msg_id: int, sender: int, receiver: int,
                     deliver_ts: int) -> bool:
        txs = self.txs.get(msg_id)
        t0 = txs[0][1] if txs else deliver_ts
        return (self._reset_between(sender, t0, deliver_ts)
                or self._reset_between(receiver, t0, deliver_ts))

    # -------------------------------------------------------------- checks
    def check(self) -> list[Violation]:
        return self.check_resolution() + self.check_exactly_once() + self.check_order()

    def check_resolution(self) -> list[Violation]:
        """I1: accepted => delivered or returned-with-reason."""
        out: list[Violation] = []
        for m, (_, ts, node) in sorted(self.accepted.items()):
            delivered = m in self.deliveries
            returned = self.returns.get(m)
            if not delivered and not returned:
                out.append(Violation("I1.unresolved", f"accepted on node {node}, "
                                     "never delivered nor returned", m, ts))
                continue
            for _, rts, rnode, reason in returned or ():
                if not reason:
                    out.append(Violation("I1.noreason",
                                         f"returned on node {rnode} without a reason",
                                         m, rts))
                elif delivered and reason not in _DELIVERED_AND_RETURNED_OK:
                    out.append(Violation(
                        "I1.contradiction",
                        f"delivered AND returned with reason {reason!r} "
                        "(only lost-ACK reasons may coexist with a delivery)",
                        m, rts))
        return out

    def check_exactly_once(self) -> list[Violation]:
        """I2: duplicate delivery only across a receiver crash/reboot."""
        out: list[Violation] = []
        for m, dels in sorted(self.deliveries.items()):
            if len(dels) <= 1:
                continue
            for (_, t0, node0, _), (_, t1, node1, _) in zip(dels, dels[1:]):
                if self._reset_between(node1, t0, t1) or node0 != node1:
                    continue  # receiver state legitimately reset (or moved)
                out.append(Violation(
                    "I2.duplicate",
                    f"delivered {len(dels)}x on node {node1} with no "
                    f"crash/reboot between t={t0} and t={t1} "
                    "(duplicate-suppression window breached?)", m, t1))
                break
        return out

    def check_order(self) -> list[Violation]:
        """I3: per (sender, receiver, channel), delivery order == bind order."""
        out: list[Violation] = []
        # (sender, receiver, ch) -> list of (deliver_index, bind_index, msg)
        lanes: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
        for m, dels in self.deliveries.items():
            d_idx, d_ts, receiver, sender = dels[0]  # first delivery only
            if self._spans_reset(m, sender, receiver, d_ts):
                continue
            ch = None
            for (i, _, node, c) in self.rxs.get(m, ()):
                if node == receiver and i < d_idx:
                    ch = c
            if ch is None:
                continue
            bind_idx = None
            for (i, _, node, c) in self.txs.get(m, ()):
                if node == sender and c == ch and i < d_idx:
                    bind_idx = i
            if bind_idx is None:
                continue
            lanes.setdefault((sender, receiver, ch), []).append((d_idx, bind_idx, m))
        for (sender, receiver, ch), entries in sorted(lanes.items()):
            entries.sort()
            for (_, b0, m0), (d1, b1, m1) in zip(entries, entries[1:]):
                if b1 < b0:
                    out.append(Violation(
                        "I3.order",
                        f"channel {sender}->{receiver}#{ch} delivered msg {m1} "
                        f"(bound earlier) after msg {m0} (bound later)",
                        m1, self.events[d1].ts))
        return out


def check_drop_accounting(network, events: Iterable["TraceEvent"]) -> list[Violation]:
    """Per-reason ``net.drop`` trace counts must equal NetworkStats counters.

    Requires the run to have been fully traced (chaos runs always are);
    with tracing off the emits are elided by design and this check does
    not apply.
    """
    out: list[Violation] = []
    traced = {r: 0 for r in _DROP_REASONS}
    for ev in events:
        if ev.kind != "net.drop":
            continue
        reason = ev.get("reason")
        if reason in traced:
            traced[reason] += 1
        else:
            out.append(Violation(
                "D.reason", f"net.drop event with unclassified reason {reason!r}",
                msg_id=ev.get("msg"), ts=ev.ts))
    for reason in _DROP_REASONS:
        counted = getattr(network.stats, f"dropped_{reason}")
        if counted != traced[reason]:
            out.append(Violation(
                "D.mismatch",
                f"network counted {counted} {reason!r} drop(s) but the trace "
                f"has {traced[reason]} net.drop event(s) with that reason"))
    return out


def percentile_ns(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile of an already-sorted integer list."""
    if not sorted_values:
        return 0
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


@dataclass(frozen=True)
class IsolationSLO:
    """The quiet tenant's service-level objective under interference.

    ``baseline_p99_ns`` is the quiet tenant's p99 RTT measured on a
    *fault-free* run with the same tenant mix, seed and probe cadence —
    the contention the operator admitted when placing both tenants on
    the fabric.  ``max_p99_inflation`` then bounds what a fault storm
    scoped to the noisy tenant may add on top: the gate isolates the
    storm's effect from the admitted load's effect.
    ``min_goodput_frac`` is the floor on answered probes — it must stay
    strictly positive ("graceful degradation, never starvation").
    """

    baseline_p99_ns: int
    max_p99_inflation: float = 3.0
    min_goodput_frac: float = 0.5

    def __post_init__(self):
        if self.baseline_p99_ns <= 0:
            raise ValueError("baseline_p99_ns must be positive")
        if self.max_p99_inflation < 1.0:
            raise ValueError("max_p99_inflation must be >= 1")
        if not (0.0 < self.min_goodput_frac <= 1.0):
            raise ValueError("min_goodput_frac must be in (0, 1]")


def check_isolation(events: Iterable["TraceEvent"], workload,
                    slo: IsolationSLO) -> list[Violation]:
    """Audit tenant isolation after a storm scoped to the noisy tenant.

    Four independent gates, all reported as ``ISO.*`` violations:

    * **ISO.leak** — no injected fault may land on a quiet-tenant node:
      the storm was scoped to the noisy fault domain, so a quiet-node
      ``fault.inject`` means the scoping itself leaked.
    * **ISO.contract** — the quiet tenant's delivery contract (I1–I3),
      checked over *its own* messages only: those a quiet-tenant
      endpoint sent (by the ``ep`` of their ``am.request``/``am.reply``),
      with all their events on any node.  The noisy tenant's faults
      legitimately produce returns and re-deliveries, and its sink on a
      quiet node replies to noisy nodes; none of that may surface as a
      violation attributed to the quiet tenant.
    * **ISO.p99** — the quiet tenant's observed p99 RTT must stay within
      ``max_p99_inflation`` of the fault-free baseline.
    * **ISO.goodput** — answered probes must meet the goodput floor and
      may never be zero.

    ``workload`` is an :class:`repro.tenant.interference.InterferenceWorkload`
    (anything with ``quiet_nodes``, a ``quiet`` tenant, ``pings``,
    ``quiet_answered`` and ``bench_latencies_ns()`` works).
    """
    out: list[Violation] = []
    events = list(events)
    quiet_nodes = set(workload.quiet_nodes)

    for ev in events:
        if ev.kind == "fault.inject" and ev.node in quiet_nodes:
            out.append(Violation(
                "ISO.leak",
                f"fault {ev.get('action')!r} injected on quiet-tenant "
                f"node {ev.node} despite noisy-scoped storm", ts=ev.ts))

    quiet_eps = {(st.node, st.ep_id) for st in workload.quiet.endpoints}
    quiet_msgs = {ev.get("msg") for ev in events
                  if ev.kind in ("am.request", "am.reply")
                  and ev.node in quiet_nodes
                  and (ev.node, ev.get("ep")) in quiet_eps}
    quiet_events = [ev for ev in events if ev.get("msg") in quiet_msgs
                    or (ev.kind == "fault.inject" and ev.node in quiet_nodes)]
    for v in DeliveryChecker(quiet_events).check():
        out.append(Violation("ISO.contract." + v.invariant, v.detail,
                             v.msg_id, v.ts))

    lats = workload.bench_latencies_ns()
    p99 = percentile_ns(lats, 99)
    bound = round(slo.baseline_p99_ns * slo.max_p99_inflation)
    if p99 > bound:
        out.append(Violation(
            "ISO.p99",
            f"quiet-tenant p99 RTT {p99}ns exceeds {slo.max_p99_inflation}x "
            f"idle baseline {slo.baseline_p99_ns}ns (bound {bound}ns)"))

    answered = workload.quiet_answered
    floor = slo.min_goodput_frac * workload.pings
    if answered == 0:
        out.append(Violation(
            "ISO.goodput", "quiet tenant starved: zero probes answered"))
    elif answered < floor:
        out.append(Violation(
            "ISO.goodput",
            f"quiet tenant answered {answered}/{workload.pings} probes, "
            f"below the {slo.min_goodput_frac:.0%} floor"))
    return out


def check_quiescence(cluster: "Cluster",
                     workload: Optional["ChaosWorkload"] = None) -> list[Violation]:
    """Assert nothing is armed, blocked, or in flight at scenario end.

    Inspects the live cluster rather than the trace: the trace says what
    happened, only the object graph can say what is *still pending*.
    """
    out: list[Violation] = []
    now = cluster.sim.now
    for node in cluster.nodes:
        nic = node.nic
        nid = nic.nic_id
        holder = node.cpu.holder
        if getattr(holder, "finished", False):
            out.append(Violation("Q.cpu", f"node {nid} CPU still leased to "
                                 f"finished thread {holder.name}", ts=now))
        if not nic.alive:
            out.append(Violation("Q.dead", f"node {nid} still crashed", ts=now))
            continue
        for chans in nic._tx_channels.values():
            for ch in chans:
                if ch.outstanding is not None:
                    out.append(Violation(
                        "Q.channel", f"node {nid} channel ->{ch.peer}#{ch.index} "
                        f"busy ({ch.outstanding} outstanding)", ts=now))
                if ch.deadline_ns is not None:
                    out.append(Violation(
                        "Q.timer", f"node {nid} channel ->{ch.peer}#{ch.index} "
                        f"timer armed for t={ch.deadline_ns}", ts=now))
        live_unbound = [m for _, _, m in nic._unbound
                        if m.state.name == "UNBOUND"]
        if live_unbound or nic._unbound_by_id:
            out.append(Violation("Q.unbound",
                                 f"node {nid} has {len(live_unbound) or len(nic._unbound_by_id)} "
                                 "message(s) awaiting channel rebind", ts=now))
        if nic._rx_inflight:
            out.append(Violation("Q.bulkdma",
                                 f"node {nid} bulk receive DMA in flight for "
                                 f"msgs {sorted(nic._rx_inflight)}", ts=now))
        if len(nic._rx_store) or nic._rx_proto_q:
            out.append(Violation("Q.rxfifo",
                                 f"node {nid} receive FIFO not drained", ts=now))
        if nic._driver_q or nic._internal_q or nic._pending_unloads:
            out.append(Violation("Q.driverq",
                                 f"node {nid} driver/completion queues not drained",
                                 ts=now))
        for ep in nic.endpoints.values():
            if ep.send_ring or ep.inflight:
                out.append(Violation(
                    "Q.endpoint", f"node {nid} ep {ep.ep_id} still sending "
                    f"({len(ep.send_ring)} ringed, {ep.inflight} in flight)",
                    ts=now))
            if ep.recv_requests or ep.recv_replies or ep.returned:
                out.append(Violation(
                    "Q.endpoint", f"node {nid} ep {ep.ep_id} has undrained "
                    f"receive/returned queues", ts=now))
    flights = cluster.network._flights
    if flights:
        pkt = flights[0].pkt
        out.append(Violation(
            "Q.flight", f"{len(flights)} express flight(s) still committed "
            f"(first: node {pkt.src_nic} -> {pkt.dst_nic}, tail due "
            f"t={flights[0].free[-1]})", msg_id=pkt.msg_id, ts=now))
    if workload is not None:
        for thr in workload.all_threads:
            if not thr.finished:
                out.append(Violation("Q.thread",
                                     f"workload thread {thr.name} never finished"
                                     + (" (still paused)" if thr.paused else ""),
                                     ts=now))
    return out
