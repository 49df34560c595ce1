"""repro.obs — unified structured tracing + metrics for the simulator.

Quickstart::

    from repro.cluster import Cluster, ClusterConfig
    from repro.obs import TraceBus, write_chrome_trace, metrics_snapshot

    cluster = Cluster(ClusterConfig(num_hosts=4))
    bus = cluster.enable_tracing()          # or TraceBus.attach(cluster.sim)
    ... run a workload ...
    write_chrome_trace(bus, "run.trace.json")   # open in chrome://tracing
    print(metrics_snapshot(bus))                # flat dict for reporting

Tracing is off by default (a nil sink on every Simulator) and costs one
attribute check per instrumentation site; enabling it never changes
simulated time or event order — the observer-only invariant (DESIGN.md).
"""

from .bus import TraceBus
from .events import KINDS, TraceEvent
from .export import metrics_snapshot, to_chrome_trace, write_chrome_trace
from .logp import (MessageSpan, PhaseStats, breakdown_rows, message_spans,
                   phase_breakdown)
from .metrics import Counter, Gauge, Histogram, MetricRegistry

__all__ = [
    "TraceBus",
    "TraceEvent",
    "KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "to_chrome_trace",
    "write_chrome_trace",
    "metrics_snapshot",
    "phase_breakdown",
    "breakdown_rows",
    "PhaseStats",
    "MessageSpan",
    "message_spans",
]
