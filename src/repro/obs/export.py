"""Exporter: Chrome ``trace_event`` JSON.

``to_chrome_trace`` produces the JSON object format understood by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): each node
becomes a *process*, each emitting subsystem a *thread*, instantaneous
events render as instants and events carrying a ``dur_ns`` argument as
complete ("X") slices.  Timestamps are microseconds as the format
requires; sub-microsecond resolution survives as fractional ``ts``.
"""

from __future__ import annotations

import json
from typing import Any

from .bus import TraceBus

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: stable thread ids per emitted component so Perfetto rows don't reorder
#: run-to-run; a component outside this table gets the next free id
_COMPONENT_TIDS = {
    "am": 1, "thr": 2, "drv": 3, "ep": 4, "pkt": 5, "ack": 6, "nack": 7,
    "msg": 8, "chan": 9, "timer": 10, "net": 11, "coll": 12, "tenant": 13,
    "fault": 14,
}


#: pid for cluster-scoped events (node == -1); keeps them off node 0's row
_CLUSTER_PID = 1 << 20


def to_chrome_trace(bus: TraceBus, label: str = "repro") -> dict[str, Any]:
    """Render the bus's events as a Chrome trace_event JSON object."""
    trace_events: list[dict[str, Any]] = []
    seen_procs: set[int] = set()
    seen_threads: set[tuple[int, int]] = set()
    tids = dict(_COMPONENT_TIDS)
    for ev in bus.events:
        pid = ev.node if ev.node >= 0 else _CLUSTER_PID
        comp = ev.component
        tid = tids.setdefault(comp, len(tids) + 1)
        if pid not in seen_procs:
            seen_procs.add(pid)
            name = f"node{ev.node}" if ev.node >= 0 else "cluster"
            trace_events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                 "args": {"name": name}}
            )
        if (pid, tid) not in seen_threads:
            seen_threads.add((pid, tid))
            trace_events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": comp}}
            )
        ts_us = ev.ts / 1_000.0
        args = dict(ev.args) if ev.args else {}
        dur_ns = args.pop("dur_ns", None)
        record: dict[str, Any] = {
            "name": ev.kind,
            "cat": comp,
            "pid": pid,
            "tid": tid,
            "ts": ts_us,
            "args": args,
        }
        if dur_ns is not None:
            record["ph"] = "X"
            record["dur"] = dur_ns / 1_000.0
            record["ts"] = (ev.ts - dur_ns) / 1_000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {"source": label, "sim_now_ns": bus.sim.now},
    }


def write_chrome_trace(bus: TraceBus, path: str, label: str = "repro") -> str:
    """Serialize :func:`to_chrome_trace` to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(bus, label=label), fh)
    return path

