"""Typed trace events carried by the :class:`~repro.obs.bus.TraceBus`.

Every event is a timestamped record of something the simulated system
*did*: a packet hit the wire, an endpoint frame was evicted, a thread
blocked.  Event kinds are dotted strings whose first component names the
emitting subsystem; the exporter maps that component to a Chrome trace
"thread" so related events line up on one row:

    ``pkt.*``    NI transport (tx/rx/retransmit/crc_drop)
    ``ack.*``    transport acknowledgements (tx/rx)
    ``nack.*``   transport negative acknowledgements (tx/rx)
    ``msg.*``    message resolution (deliver / return-to-sender)
    ``chan.*``   flow-control channels (stall/unbind/rebind)
    ``timer.*``  retransmission timers (arm/fire)
    ``ep.*``     endpoint residency (load/unload/evict/writefault)
    ``drv.*``    segment driver operations
    ``am.*``     Active Message API operations
    ``net.*``    wire fabric (deliver/drop)
    ``thr.*``    host threads (block/wake)
    ``coll.*``   NI collective trees (up/fwd_up/down/complete)
    ``tenant.*`` tenant admission (veto)
    ``fault.*``  injected faults

Emitting an event never consumes simulated time, never touches an RNG
stream, and never schedules anything — observer-only by construction
(see DESIGN.md, "The observer-only invariant").
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["TraceEvent", "KINDS"]

#: the event vocabulary: exactly the kinds ``src/repro`` emits
#: (``tests/test_obs.py`` checks every ``.emit(...)`` literal against it)
KINDS = (
    "pkt.tx", "pkt.retransmit", "pkt.rx", "pkt.crc_drop",
    "ack.tx", "ack.rx", "nack.tx", "nack.rx",
    "msg.deliver", "msg.return",
    "chan.stall", "chan.unbind", "chan.rebind",
    "timer.arm", "timer.fire",
    "ep.load", "ep.unload", "ep.evict", "ep.writefault",
    "ep.pagein", "ep.pageout",
    "drv.op", "drv.proxy_fault", "drv.remap",
    "am.request", "am.reply", "am.undeliverable",
    "net.deliver", "net.drop",
    "thr.block", "thr.wake",
    "coll.up", "coll.fwd_up", "coll.down", "coll.complete",
    "tenant.veto",
    "fault.inject",
)


class TraceEvent:
    """One timestamped, typed observation.

    ``ts`` is integer simulated nanoseconds; ``node`` is the host the
    event happened on (``-1`` when not node-attributable); ``args`` is a
    small dict of event-specific fields (msg ids, reasons, durations).
    """

    __slots__ = ("ts", "kind", "node", "args")

    def __init__(self, ts: int, kind: str, node: int, args: Optional[dict]):
        self.ts = ts
        self.kind = kind
        self.node = node
        self.args = args

    @property
    def component(self) -> str:
        """Subsystem prefix of the kind (``pkt``, ``ep``, ``net``, ...)."""
        head, _, _ = self.kind.partition(".")
        return head

    def get(self, key: str, default: Any = None) -> Any:
        return self.args.get(key, default) if self.args else default

    def __repr__(self) -> str:
        return f"<TraceEvent {self.ts}ns {self.kind} node={self.node} {self.args or {}}>"
