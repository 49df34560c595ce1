"""The observer-only invariant: tracing never perturbs the simulation.

Every instrumentation site is guarded by ``if sim.trace.enabled:`` and
``TraceBus.emit`` only appends records and bumps counters — it never
advances simulated time, reads an RNG stream, or schedules a callback.
This file locks that in end-to-end: a contended 4-node workload run
twice with tracing off and twice with tracing on must produce identical
final simulated times, message logs, layer statistics, dispatched
kernel events and express-path bookkeeping — attaching the bus keeps
the code path, not just the results.

The same run doubles as the Chrome trace_event acceptance check: the
trace exported from the traced run must be valid JSON in the format
chrome://tracing and Perfetto consume.
"""

import dataclasses
import json

from repro.am import parallel_vnet
from repro.cluster import Cluster, ClusterConfig
from repro.obs import to_chrome_trace, write_chrome_trace
from repro.sim import ms, us

NCLIENTS = 3
MSGS_PER_CLIENT = 20


def _contended_run(trace: bool):
    """4 nodes, 3 clients hammering one server under 2% loss.

    Returns ``(fingerprint, bus)`` where the fingerprint captures final
    simulated time, the full ordered delivery log, fabric and NI
    statistics, the kernel's dispatched-event count and the express
    path's bookkeeping — everything that could reveal a perturbation or
    a different code path.
    """
    cfg = ClusterConfig(num_hosts=4, seed=11, packet_loss_prob=0.02)
    cluster = Cluster(cfg)
    bus = cluster.enable_tracing() if trace else None
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1, 2, 3]), "setup")
    sim = cluster.sim
    deliveries: list[tuple[int, int, int]] = []
    total = NCLIENTS * MSGS_PER_CLIENT

    def handler(token, who, k):
        deliveries.append((sim.now, who, k))

    def make_client(rank):
        ep = vnet[rank]

        def client(thr):
            for k in range(MSGS_PER_CLIENT):
                yield from ep.request(thr, 0, handler, rank, k)
                yield from ep.poll(thr, limit=4)
            while ep._outstanding:
                yield from ep.poll(thr, limit=8)
                yield from thr.compute(us(5))

        return client

    def server(thr):
        while len(deliveries) < total:
            yield from vnet[0].poll(thr, limit=8)
            yield from thr.compute(us(2))

    cluster.node(0).start_process().spawn_thread(server)
    for rank in range(1, NCLIENTS + 1):
        cluster.node(rank).start_process().spawn_thread(make_client(rank))
    sim.run(until=sim.now + ms(5_000), stop=lambda: len(deliveries) >= total)
    assert len(deliveries) == total, "workload did not complete"

    net = cluster.network.stats
    fingerprint = (
        sim.now,
        tuple(deliveries),
        (net.sent, net.delivered, net.dropped_loss, net.bytes_delivered),
        tuple(
            (n.nic.stats.data_sent, n.nic.stats.retransmissions,
             n.nic.stats.deliveries)
            for n in cluster.nodes
        ),
        sim.events_dispatched,
        dataclasses.asdict(cluster.network.express),
    )
    return fingerprint, bus


def test_tracing_on_equals_tracing_off_bit_for_bit():
    off1, _ = _contended_run(trace=False)
    off2, _ = _contended_run(trace=False)
    on1, _ = _contended_run(trace=True)
    on2, _ = _contended_run(trace=True)
    assert off1 == off2  # the run is deterministic at all...
    assert on1 == on2  # ...with or without the bus attached...
    assert off1 == on1  # ...and the bus changes nothing (observer-only)
    assert off1[-1]["commits"] > 0  # the express path ran in both


def test_chrome_trace_export_from_contended_run_is_valid(tmp_path):
    _, bus = _contended_run(trace=True)
    assert bus is not None and len(bus) > 0

    path = write_chrome_trace(bus, str(tmp_path / "trace.json"), label="contended")
    with open(path) as fh:
        doc = json.load(fh)  # round-trips as real JSON

    assert doc == to_chrome_trace(bus, label="contended")
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    assert doc["otherData"]["sim_now_ns"] == bus.sim.now

    meta = [e for e in events if e["ph"] == "M"]
    payload = [e for e in events if e["ph"] != "M"]
    assert payload, "no payload events"
    # all 4 nodes show up as processes with named threads
    proc_names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert {"node0", "node1", "node2", "node3"} <= proc_names
    # every (node, component) row carries exactly one component's
    # events and is named after it
    row_names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in meta if e["name"] == "thread_name"}
    row_comps: dict = {}
    for e in events:
        if e["ph"] != "M":
            row_comps.setdefault((e["pid"], e["tid"]), set()).add(e["cat"])
    assert row_comps and row_comps.keys() == row_names.keys()
    for row, comps in row_comps.items():
        assert comps == {row_names[row]}, (row, comps)

    for e in payload:
        assert e["ph"] in ("i", "X")
        assert isinstance(e["name"], str) and e["name"]
        assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        if e["ph"] == "X":
            assert e["dur"] >= 0

    # instants come out in simulated-time order (slices back-date their ts)
    instant_ts = [e["ts"] for e in payload if e["ph"] == "i"]
    assert instant_ts == sorted(instant_ts)

    # the transport actually got traced
    names = {e["name"] for e in payload}
    assert {"pkt.tx", "net.deliver", "msg.deliver", "ack.rx"} <= names


def test_trace_metrics_aggregate_the_same_run():
    _, bus = _contended_run(trace=True)
    counts = bus.counts()
    # every delivered message produced one msg.deliver event
    assert counts["msg.deliver"] >= NCLIENTS * MSGS_PER_CLIENT
    # the counter registry agrees with the raw event log
    from repro.obs import metrics_snapshot

    snap = metrics_snapshot(bus)
    total_tx = sum(v for k, v in snap.items() if k.startswith("events.pkt.tx{"))
    assert total_tx == counts["pkt.tx"]
