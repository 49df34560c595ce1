"""The simulator-wide trace bus.

One :class:`TraceBus` attaches to a :class:`~repro.sim.core.Simulator`
(``TraceBus.attach(sim)`` replaces the nil sink installed by the kernel)
and from then on every instrumented subsystem on that simulator reports
typed, timestamped :class:`~repro.obs.events.TraceEvent`\\ s through it.

The zero-perturbation contract
------------------------------

Instrumentation sites are written as::

    tr = self.sim.trace
    if tr.enabled:
        tr.emit("pkt.tx", node, msg=msg.msg_id)

so with tracing off (the default nil sink) the cost is one attribute
load and a falsy check, and with tracing on the only work is appending a
record to :attr:`TraceBus.events`, which keeps every event of the run —
:meth:`emit` never advances simulated time, never reads an RNG stream,
and never schedules a callback.
Enabling tracing therefore cannot change simulated time or event order;
``tests/test_obs_determinism.py`` locks this in.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim.core import Simulator
from .events import TraceEvent

__all__ = ["TraceBus"]


class TraceBus:
    """Collects trace events; :meth:`counts` and :meth:`select` total them."""

    enabled = True

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.events: list[TraceEvent] = []

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def attach(cls, sim: Simulator) -> "TraceBus":
        """Install a bus on ``sim``, replacing the nil sink (or a prior bus)."""
        bus = cls(sim)
        sim.trace = bus
        return bus

    def detach(self) -> None:
        """Restore the nil sink; the collected events remain readable."""
        from ..sim.core import NULL_TRACE

        if self.sim.trace is self:
            self.sim.trace = NULL_TRACE

    # ----------------------------------------------------------------- emit
    def emit(self, kind: str, node: int = -1, **args: Any) -> None:
        """Record one event at the current simulated time (observer-only)."""
        self.events.append(TraceEvent(self.sim.now, kind, node, args or None))

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def select(self, kind: Optional[str] = None, node: Optional[int] = None) -> list[TraceEvent]:
        """Events filtered by exact kind (or ``"pkt."`` prefix) and node."""
        prefix = kind.endswith(".") if kind else False
        out = []
        for ev in self.events:
            if kind is not None:
                if prefix:
                    if not ev.kind.startswith(kind):
                        continue
                elif ev.kind != kind:
                    continue
            if node is not None and ev.node != node:
                continue
            out.append(ev)
        return out

    def counts(self) -> dict[str, int]:
        """Total events per kind (all nodes)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out
