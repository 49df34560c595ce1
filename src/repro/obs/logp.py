"""LogP phase attribution from trace spans (Figure 3 companion).

The LogP harness measures *totals* (Os, Or, L, g) from the outside; this
module answers "where did the microseconds go" by stitching each small
message's trace events into a span and attributing the elapsed time to
four phases:

* **send** — sender enqueues the descriptor until the packet's first
  transmission leaves the NI (host Os + ring wait + NI send service);
* **wire** — first transmission until the fabric delivers the tail to
  the destination NI (L's wire component, including any link stalls);
* **recv** — wire delivery until the message is written into the
  destination endpoint (NI receive service, defensive error checking,
  delivery);
* **ack** — endpoint delivery until the sender processes the positive
  acknowledgment and retires the channel (the hidden half of the gap).

Only messages whose whole event chain was captured are attributed, so a
bus attached mid-run simply skips the partially-observed prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bus import TraceBus

__all__ = ["MessageSpan", "message_spans", "PhaseStats", "phase_breakdown"]

PHASES = ("send", "wire", "recv", "ack", "total")


@dataclass
class MessageSpan:
    """One message's life as timestamps stitched from the trace.

    All times are integer simulated nanoseconds; ``None`` marks a stage
    that was never observed (message still in flight when the bus
    detached, or returned to its sender).  The phase properties mirror
    :func:`phase_breakdown`'s attribution and are only meaningful on
    :meth:`complete` spans.
    """

    msg_id: int
    #: sending NI (node of the first ``pkt.tx``)
    src: int = -1
    #: receiving NI (node of ``msg.deliver``)
    dst: int = -1
    #: payload bytes as reported at first transmission
    nbytes: int = 0
    #: destination endpoint id (from ``msg.deliver``)
    ep: int = -1
    #: host wrote the send descriptor (``enq`` arg of ``pkt.tx``)
    enq_ts: Optional[int] = None
    #: first transmission left the NI (``pkt.tx``)
    tx_ts: Optional[int] = None
    #: fabric delivered the tail to the destination NI (``net.deliver``)
    net_ts: Optional[int] = None
    #: written into the destination endpoint (``msg.deliver``)
    deliver_ts: Optional[int] = None
    #: sender processed the positive acknowledgment (``ack.rx``)
    ack_ts: Optional[int] = None

    def complete(self) -> bool:
        return None not in (self.enq_ts, self.tx_ts, self.net_ts,
                            self.deliver_ts, self.ack_ts)

    # phase widths (complete spans only)
    @property
    def send_ns(self) -> int:
        return self.tx_ts - self.enq_ts

    @property
    def wire_ns(self) -> int:
        return max(0, self.net_ts - self.tx_ts)

    @property
    def recv_ns(self) -> int:
        return max(0, self.deliver_ts - self.net_ts)

    @property
    def ack_ns(self) -> int:
        return max(0, self.ack_ts - self.deliver_ts)

    @property
    def total_ns(self) -> int:
        return self.ack_ts - self.enq_ts

    @property
    def oneway_ns(self) -> int:
        """Enqueue to endpoint delivery — the calibration harness's L
        observable (send + wire + recv, without the ack half)."""
        return self.deliver_ts - self.enq_ts


def message_spans(bus: TraceBus, complete_only: bool = False) -> list[MessageSpan]:
    """Stitch per-message spans from the bus, in first-tx order.

    Retransmissions keep the first transmission's timestamps (matching
    :func:`phase_breakdown`); with ``complete_only`` spans missing any
    stage (in flight, returned, or captured mid-run) are dropped.
    """
    spans: dict[int, MessageSpan] = {}

    def span(msg: int) -> MessageSpan:
        sp = spans.get(msg)
        if sp is None:
            sp = spans[msg] = MessageSpan(msg)
        return sp

    for ev in bus.events:
        kind = ev.kind
        msg = ev.get("msg")
        if msg is None:
            continue
        if kind == "pkt.tx":
            sp = span(msg)
            if sp.tx_ts is None:
                sp.tx_ts = ev.ts
                sp.enq_ts = ev.get("enq", ev.ts)
                sp.src = ev.node
                sp.nbytes = ev.get("nbytes", 0)
        elif kind == "net.deliver":
            sp = span(msg)
            if sp.net_ts is None:
                sp.net_ts = ev.ts
        elif kind == "msg.deliver":
            sp = span(msg)
            if sp.deliver_ts is None:
                sp.deliver_ts = ev.ts
                sp.dst = ev.node
                sp.ep = ev.get("ep", -1)
        elif kind == "ack.rx":
            sp = span(msg)
            if sp.ack_ts is None:
                sp.ack_ts = ev.ts
    out = [sp for sp in spans.values() if sp.tx_ts is not None]
    if complete_only:
        out = [sp for sp in out if sp.complete()]
    out.sort(key=lambda sp: (sp.tx_ts, sp.msg_id))
    return out


@dataclass
class PhaseStats:
    count: int = 0
    total_ns: int = 0
    max_ns: int = 0

    def add(self, ns: int) -> None:
        self.count += 1
        self.total_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.count / 1_000.0 if self.count else 0.0

    @property
    def max_us(self) -> float:
        return self.max_ns / 1_000.0


def phase_breakdown(bus: TraceBus) -> dict[str, PhaseStats]:
    """Attribute per-message time to phases; keyed by phase name."""
    stats = {phase: PhaseStats() for phase in PHASES}
    for sp in message_spans(bus, complete_only=True):
        stats["send"].add(sp.send_ns)
        stats["wire"].add(sp.wire_ns)
        stats["recv"].add(sp.recv_ns)
        stats["ack"].add(sp.ack_ns)
        stats["total"].add(sp.total_ns)
    return stats
