"""Unit tests for the observability layer (repro.obs)."""

import ast
import json
from pathlib import Path

import repro

from repro.obs import (
    KINDS,
    PhaseStats,
    TraceBus,
    phase_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.sim.core import NULL_TRACE


# ------------------------------------------------------------- nil sink
def test_simulator_defaults_to_nil_trace():
    sim = Simulator()
    assert sim.trace is NULL_TRACE
    assert sim.trace.enabled is False
    # emitting through the nil sink is a no-op, not an error
    sim.trace.emit("pkt.tx", 0, msg=1)


def test_attach_detach_cycle():
    sim = Simulator()
    bus = TraceBus.attach(sim)
    assert sim.trace is bus and bus.enabled
    bus.emit("pkt.tx", 0, msg=1)
    bus.detach()
    assert sim.trace is NULL_TRACE
    # events collected before detach stay readable
    assert len(bus) == 1
    # detaching twice (or detaching a superseded bus) is harmless
    bus2 = TraceBus.attach(sim)
    bus.detach()
    assert sim.trace is bus2


# ------------------------------------------------------------------ bus
def _scripted_bus():
    """A bus fed a hand-written event sequence at varying sim times."""
    sim = Simulator()
    bus = TraceBus.attach(sim)
    script = [
        (10, "pkt.tx", 0, dict(msg=1, enq=2)),
        (25, "net.deliver", 1, dict(msg=1)),
        (40, "msg.deliver", 1, dict(msg=1)),
        (55, "ack.rx", 0, dict(msg=1)),
        (60, "ep.load", 1, dict(ep=3, dur_ns=12)),
        (70, "pkt.tx", 0, dict(msg=2, enq=61)),
        (75, "net.drop", 0, dict(msg=2, reason="loss")),
    ]

    # scheduled callbacks: each record is emitted at exactly its scripted ts
    for ts, kind, node, args in script:
        sim.schedule(ts, lambda k=kind, n=node, a=args: bus.emit(k, n, **a))
    sim.run()
    return sim, bus


def test_emit_records_sim_time_and_kind():
    sim, bus = _scripted_bus()
    assert [e.ts for e in bus.events] == [10, 25, 40, 55, 60, 70, 75]
    ev = bus.events[0]
    assert ev.kind == "pkt.tx" and ev.component == "pkt"
    assert ev.node == 0 and ev.get("msg") == 1 and ev.get("nope", 7) == 7
    assert ev.kind in KINDS


def test_select_by_kind_prefix_and_node():
    _, bus = _scripted_bus()
    assert len(bus.select("pkt.tx")) == 2
    assert len(bus.select("pkt.")) == 2  # trailing dot = component prefix
    assert len(bus.select("net.")) == 2
    assert len(bus.select(node=1)) == 3
    assert len(bus.select("pkt.tx", node=0)) == 2
    assert bus.select("nack.tx") == []
    assert bus.counts()["pkt.tx"] == 2


def _literal_kinds(node):
    """The kinds a literal ``.emit`` first argument can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literal_kinds(node.body) | _literal_kinds(node.orelse)
    raise AssertionError(f"non-literal trace kind at line {node.lineno}")


def test_kinds_is_exactly_what_the_source_emits():
    emitted = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and node.args):
                emitted |= _literal_kinds(node.args[0])
    assert len(KINDS) == len(set(KINDS))
    assert emitted == set(KINDS)


# --------------------------------------------------------------- export
def test_chrome_export_structure(tmp_path):
    _, bus = _scripted_bus()
    doc = to_chrome_trace(bus, label="unit")
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"]["source"] == "unit"

    payload = [e for e in events if e["ph"] != "M"]
    assert len(payload) == len(bus)
    # the ep.load event carried dur_ns -> a complete slice, back-dated
    slices = [e for e in payload if e["ph"] == "X"]
    assert len(slices) == 1
    (sl,) = slices
    assert sl["name"] == "ep.load"
    assert sl["dur"] == 12 / 1000.0 and sl["ts"] == (60 - 12) / 1000.0
    assert "dur_ns" not in sl["args"]  # folded into the slice

    # both nodes named, one thread row per emitting component
    meta = [e for e in events if e["ph"] == "M"]
    procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert procs == {"node0", "node1"}
    threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert {"pkt", "net", "msg", "ack", "ep"} <= threads

    path = write_chrome_trace(bus, str(tmp_path / "t.json"), label="unit")
    with open(path) as fh:
        assert json.load(fh) == doc


# ------------------------------------------------------- phase spans
def test_phase_breakdown_attributes_spans():
    _, bus = _scripted_bus()
    phases = phase_breakdown(bus)
    # msg 1 has the full tx -> deliver -> ack chain; msg 2 was dropped
    assert phases["total"].count == 1
    assert phases["send"].total_ns == 10 - 2
    assert phases["wire"].total_ns == 25 - 10
    assert phases["recv"].total_ns == 40 - 25
    assert phases["ack"].total_ns == 55 - 40
    assert phases["total"].total_ns == 55 - 2
    assert phases["total"].mean_us == (55 - 2) / 1000.0


def test_phase_breakdown_ignores_retransmit_duplicates():
    sim = Simulator()
    bus = TraceBus.attach(sim)

    def driver():
        bus.emit("pkt.tx", 0, msg=9, enq=0)
        yield sim.timeout(100)
        bus.emit("pkt.tx", 0, msg=9, enq=0)  # retransmitted copy
        yield sim.timeout(10)
        bus.emit("net.deliver", 1, msg=9)
        bus.emit("msg.deliver", 1, msg=9)
        yield sim.timeout(10)
        bus.emit("ack.rx", 0, msg=9)

    sim.spawn(driver())
    sim.run()
    phases = phase_breakdown(bus)
    assert phases["send"].total_ns == 0  # first tx at ts 0, enq 0
    assert phases["wire"].total_ns == 110  # measured from the FIRST tx
    assert phases["total"].count == 1


def test_phase_stats_empty_means():
    st = PhaseStats()
    assert st.mean_us == 0.0 and st.max_us == 0.0
