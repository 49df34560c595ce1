"""repro.obs — unified structured tracing for the simulator.

Quickstart::

    from repro.cluster import Cluster, ClusterConfig
    from repro.obs import TraceBus, write_chrome_trace

    cluster = Cluster(ClusterConfig(num_hosts=4))
    bus = cluster.enable_tracing()          # or TraceBus.attach(cluster.sim)
    ... run a workload ...
    write_chrome_trace(bus, "run.trace.json")   # open in chrome://tracing
    print(bus.counts())                         # events per kind
    drops = bus.select("net.drop", node=0)      # one kind on one node

Tracing is off by default (a nil sink on every Simulator) and costs one
attribute check per instrumentation site; enabling it never changes
simulated time or event order — the observer-only invariant (DESIGN.md).
Run counters live in the stats objects the simulator always keeps
(``NetworkStats``, ``ExpressStats``, ``NicStats``, ``TenantStats``), not
on the bus.
"""

from .bus import TraceBus
from .events import KINDS, TraceEvent
from .export import to_chrome_trace, write_chrome_trace
from .logp import MessageSpan, PhaseStats, message_spans, phase_breakdown

__all__ = [
    "TraceBus",
    "TraceEvent",
    "KINDS",
    "to_chrome_trace",
    "write_chrome_trace",
    "phase_breakdown",
    "PhaseStats",
    "MessageSpan",
    "message_spans",
]
