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
record and bumping counters — :meth:`emit` never advances simulated
time, never reads an RNG stream, and never schedules a callback.
Enabling tracing therefore cannot change simulated time or event order;
``tests/test_obs_determinism.py`` locks this in.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.core import Simulator
from .events import TraceEvent
from .metrics import MetricRegistry

__all__ = ["TraceBus"]


class TraceBus:
    """Collects trace events and aggregates per-kind/per-node metrics."""

    enabled = True

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        #: drop-oldest ring bound; None keeps everything
        self.capacity = capacity
        self.events: list[TraceEvent] = []
        self.dropped = 0
        self.metrics = MetricRegistry()
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def attach(cls, sim: Simulator, capacity: Optional[int] = None) -> "TraceBus":
        """Install a bus on ``sim``, replacing the nil sink (or a prior bus)."""
        bus = cls(sim, capacity=capacity)
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
        ev = TraceEvent(self.sim.now, kind, node, args or None)
        self.events.append(ev)
        if self.capacity is not None and len(self.events) > self.capacity:
            del self.events[0 : len(self.events) - self.capacity]
            self.dropped += 1
        self.metrics.counter("events." + kind, node=node).inc()
        if kind == "net.drop":
            # Per-reason visibility (net.drop.loss/linkdown/noroute/
            # dead_nic) so fabric drops are distinguishable without
            # re-scanning the event list.
            reason = args.get("reason")
            if reason is not None:
                self.metrics.counter(f"net.drop.{reason}", node=node).inc()
        for fn in self._subscribers:
            fn(ev)

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Live-stream events to ``fn``; returns an unsubscribe callable."""
        self._subscribers.append(fn)

        def cancel() -> None:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

        return cancel

    def publish_network(self, network) -> None:
        """Snapshot fabric counters into the metric registry.

        Publishes the per-reason drop totals from ``network.stats`` and
        the express-path hit/fallback counters from ``network.express``
        (which are kept out of ``NetworkStats`` so that structure stays
        identical across express/full-fidelity modes).  Call after a run;
        reading counters perturbs nothing.
        """
        m = self.metrics
        s = network.stats
        for reason in ("loss", "linkdown", "noroute", "dead_nic"):
            c = m.counter(f"net.drop.{reason}.total")
            c.value = getattr(s, f"dropped_{reason}")
        x = network.express
        m.counter("net.express.hits").value = x.hits()
        m.counter("net.express.commits").value = x.commits
        m.counter("net.express.loopback").value = x.loopback
        m.counter("net.express.delivered").value = x.delivered
        m.counter("net.express.revoked").value = x.revoked
        m.counter("net.express.fallback.busy").value = x.fallback_busy
        m.counter("net.express.fallback.active").value = x.fallback_active
        m.counter("net.express.revoked.ahead").value = x.revoked_ahead
        m.counter("net.express.revoked.race").value = x.revoked_race
        m.counter("net.express.fallback.active.ahead").value = x.fallback_ahead
        m.counter("net.express.fallback.active.race").value = x.fallback_race
        m.counter("net.express.reenabled").value = x.reenabled

    def publish_tenants(self, registry) -> None:
        """Snapshot per-tenant isolation counters into the metric registry.

        ``registry`` is a :class:`repro.tenant.TenantRegistry`.  Publishes
        each tenant's service/throttle/eviction counters plus two gauges:
        resident frames currently held and the total send-service deficit
        carried by its endpoints (rate-limit debt the weighted rotation
        still owes).  Call after a run; like :meth:`publish_network`, the
        counters are plain integers kept on both traced and untraced
        paths, so reading them perturbs nothing.
        """
        m = self.metrics
        for tenant in registry:
            labels = {"tenant": tenant.name}
            s = tenant.stats
            m.counter("tenant.msgs_serviced", **labels).value = s.msgs_serviced
            m.counter("tenant.throttled", **labels).value = s.throttled
            m.counter("tenant.evictions.suffered", **labels).value = s.evictions_suffered
            m.counter("tenant.evictions.caused", **labels).value = s.evictions_caused
            m.counter("tenant.reservation_vetoes", **labels).value = s.reservation_vetoes
            m.counter("tenant.quota_self_evictions", **labels).value = s.quota_self_evictions
            m.gauge("tenant.frames_held", **labels).set(tenant.frames_held())
            m.gauge("tenant.service_deficit", **labels).set(
                sum(ep.service_deficit for ep in tenant.endpoints))

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
