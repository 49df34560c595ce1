"""Perf-regression harness for the event-kernel hot path.

Runs four canonical scenarios —

* **logp_pingpong**  — the Figure 3 request/reply cycle, back to back;
* **fig6_contention** — the Section 6.4 client/server thrash (OneVN);
* **chaos_smoke**    — one deterministic chaos run (mixed faults,
  pairwise workload) with the delivery-contract audit on;
* **net_burst**      — a network-heavy all-to-all burst on a 32-host
  fabric driving :class:`~repro.myrinet.network.Network` directly:
  staggered shift-permutation waves (mostly uncontended — express-path
  food) mixed with hotspot waves (everyone to host 0 — revocation and
  fallback pressure) and loopback self-sends;
* **calib_workloads** — the datacenter diversity shapes from
  :mod:`repro.calib.workloads` (incast, RPC fan-out, streaming
  pipeline) at reduced scale, digesting their express-invariant
  observables;

— and measures, for each, the kernel event throughput (events/s via
``Simulator.events_dispatched``), wall-clock time, and peak Python heap
(``tracemalloc``, on a reduced-scale pass so tracing overhead does not
pollute the throughput numbers).  Results land in ``BENCH_PERF.json``.

Correctness is checked against :class:`repro.sim.ReferenceSimulator`,
a kernel that keeps the pre-optimization generic scheduling paths (no
entry pool, no timeout free-list, no typed resume dispatch).  Both
kernels run the *same* library code, so each scenario is replayed on
both and must produce

* **bit-identical timeline digests** (over the normalized trace, for
  the traced scenarios) and identical end-state counters, and
* the **same number of dispatched kernel events** — the fast paths must
  not add or remove events, only make each one cheaper.

Because the event counts match, the optimized/reference events-per-sec
ratio is a machine-independent speedup figure; ``--check`` fails if that
ratio has dropped more than 20% below the committed ``BENCH_PERF.json``,
which is how CI catches hot-path regressions without trusting absolute
wall-clock on shared runners.

The same oracle discipline covers the fabric's **express delivery
path** (``ClusterConfig.express_path``): every scenario is replayed
with the express path forced off and the mode-invariant end state
(delivery-timeline digests, ``NetworkStats``, simulated clock) must
match bit for bit — express elides kernel *events*, never observable
behaviour.  ``net_burst`` reports the express speedup as an
events-per-second figure (baseline event count over express wall), and
``--check`` applies the same >20%-regression rule to it.

Run through the harness::

    PYTHONPATH=src python -m repro bench perf                # -> BENCH_PERF.json
    PYTHONPATH=src python -m repro bench perf --smoke --check  # CI gate
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Optional

from ..am.vnet import parallel_vnet
from ..api.engine import resolve_kernel
from ..apps.clientserver import ContentionConfig, run_contention
from ..chaos import (ScheduleGenerator, chaos_config, reset_global_ids,
                     run_chaos, timeline_digest)
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..myrinet.network import Network
from ..myrinet.packet import Packet, PacketType
from ..sim import ms
from .harness import Suite, digest, register

__all__ = ["SCENARIOS", "Scale", "QUICK", "run_scenario"]

SCENARIOS = ("logp_pingpong", "fig6_contention", "chaos_smoke", "net_burst",
             "calib_workloads")

@dataclass(frozen=True)
class Scale:
    """Problem sizes for one harness pass."""

    pingpong_rounds: int = 600
    contention_warmup_ms: float = 40.0
    contention_duration_ms: float = 60.0
    chaos_duration_ns: int = 8_000_000
    burst_hosts: int = 32
    burst_waves: int = 60
    calib_rounds: int = 6

    def shrunk(self) -> "Scale":
        """A reduced-scale variant for the tracemalloc (peak-heap) pass."""
        return Scale(
            pingpong_rounds=max(50, self.pingpong_rounds // 5),
            contention_warmup_ms=self.contention_warmup_ms / 2,
            contention_duration_ms=max(10.0, self.contention_duration_ms / 3),
            chaos_duration_ns=max(2_000_000, self.chaos_duration_ns // 3),
            burst_hosts=self.burst_hosts,
            burst_waves=max(8, self.burst_waves // 4),
            calib_rounds=max(2, self.calib_rounds // 2),
        )


QUICK = Scale(pingpong_rounds=200, contention_warmup_ms=20.0,
              contention_duration_ms=25.0, chaos_duration_ns=4_000_000,
              burst_waves=20, calib_rounds=4)


# --------------------------------------------------------------- scenarios
def _run_pingpong(engine, scale: Scale, traced: bool,
                  express: bool = True) -> dict:
    """N request/reply round trips between two endpoints (Figure 3 cycle)."""
    reset_global_ids()
    rounds = scale.pingpong_rounds
    cluster = Cluster(ClusterConfig(num_hosts=4, express_path=express),
                      engine=engine)
    bus = cluster.enable_tracing() if traced else None
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    done: list[int] = []

    def handler(token):
        token.reply(None)

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def sender(thr):
        for _ in range(rounds):
            yield from ep0.request(thr, 1, handler, nbytes=16)
            while True:
                got = yield from ep0.poll(thr, limit=4)
                if got:
                    break
        done.append(1)

    cluster.node(1).start_process("r").spawn_thread(receiver)
    cluster.node(0).start_process("s").spawn_thread(sender)
    t0 = time.perf_counter()
    sim.run(until=sim.now + ms(30_000), stop=lambda: bool(done))
    wall = time.perf_counter() - t0
    if not done:
        raise RuntimeError("ping-pong did not complete inside the time budget")
    digest = timeline_digest(bus.events) if traced else None
    if bus is not None:
        bus.detach()
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": sim.now,
        "digest": digest,
        # end-state that must be identical across kernels
        "checks": {"rounds": rounds, "sim_ns": sim.now, "digest": digest},
    }


def _run_contention(engine, scale: Scale, traced: bool,
                    express: bool = True) -> dict:
    """Figure 6 OneVN contention: 4 clients thrash one shared endpoint."""
    reset_global_ids()
    ccfg = ContentionConfig(
        nclients=4, mode="one_vn",
        warmup_ms=scale.contention_warmup_ms,
        duration_ms=scale.contention_duration_ms,
        base=ClusterConfig(express_path=express),
    )
    t0 = time.perf_counter()
    res = run_contention(ccfg, engine=engine)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events": res.events_dispatched,
        "sim_ns": res.sim_ns,
        "digest": None,
        "checks": {
            "sim_ns": res.sim_ns,
            "aggregate_msgs_s": round(res.aggregate_msgs_s, 6),
            "per_client_msgs_s": [round(x, 6) for x in res.per_client_msgs_s],
            "remaps_per_s": round(res.remaps_per_s, 6),
        },
    }


def _run_chaos_smoke(engine, scale: Scale, traced: bool,
                     express: bool = True) -> dict:
    """One audited chaos run (mixed faults, pairwise workload, 8 hosts)."""
    gen = ScheduleGenerator(
        1, num_hosts=8, num_spines=2, num_procs=4, num_eps=4,
        duration_ns=scale.chaos_duration_ns, profile="rough",
    )
    scenario = gen.generate("mixed")
    # Chaos always traces, so the express path never engages here; the
    # express knob is still honoured so the on/off oracle can pin that.
    cfg = chaos_config(scenario.seed, num_hosts=8, express_path=express)
    t0 = time.perf_counter()
    report = run_chaos(scenario, "pairwise", cfg=cfg, num_hosts=8, keep=True,
                       engine=engine)
    wall = time.perf_counter() - t0
    if not report.ok:
        raise RuntimeError(
            f"chaos smoke run violated the delivery contract: {report.violations}")
    sim = report.cluster.sim  # type: ignore[attr-defined]
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": report.sim_ns,
        "digest": report.digest,
        "checks": {
            "digest": report.digest,
            "sim_ns": report.sim_ns,
            "accepted": report.accepted,
            "delivered": report.delivered,
            "returned": report.returned,
        },
    }


def _run_net_burst(engine, scale: Scale, traced: bool,
                   express: bool = True) -> dict:
    """Network-heavy all-to-all burst driving the fabric directly.

    Waves of shift-permutation traffic, staggered so most packets find
    an idle fabric (express commits), interleaved with hotspot waves
    (everyone to host 0 — queueing, revocations, fallbacks) and
    loopback self-send waves.  The delivery timeline is recorded by the
    rx handlers themselves — ``(t, src, dst, msg, bytes)`` tuples — so
    the digest is observable-behaviour-only and identical whether the
    kernel traced or the express path engaged.
    """
    reset_global_ids()
    n = scale.burst_hosts
    cfg = ClusterConfig(num_hosts=n, seed=11, express_path=express)
    sim = resolve_kernel(engine)()
    net = Network(sim, cfg)
    deliveries: list[tuple[int, int, int, int, int]] = []

    def rx(pkt: Packet) -> None:
        deliveries.append((sim.now, pkt.src_nic, pkt.dst_nic,
                           pkt.msg_id, pkt.payload_bytes))

    for i in range(n):
        net.attach(i, rx)

    msg_id = 0

    def inject(src: int, dst: int, nbytes: int, mid: int) -> None:
        net.send(Packet(src, dst, PacketType.DATA,
                        payload_bytes=nbytes, msg_id=mid))

    base = 0
    for w in range(scale.burst_waves):
        if w % 7 == 6:          # loopback wave: everyone to themselves
            targets = [(i, i) for i in range(n)]
            stagger, pad = 400, 5_000
        elif w % 13 == 4:       # hotspot wave: a dozen senders pile onto
            targets = [(i, 0) for i in range(1, 13)]  # host 0 at once —
            stagger, pad = 150, 60_000  # revocation + fallback pressure
        else:                   # shift permutation: each flight finishes
            shift = (w % (n - 1)) + 1  # before the next injection, so
            targets = [(i, (i + shift) % n) for i in range(n)]  # express
            stagger, pad = 6_000, 20_000  # commits and is never revoked
        for k, (src, dst) in enumerate(targets):
            msg_id += 1
            nbytes = 16 + ((w * 13 + k * 7) % 6) * 48
            sim.schedule(base + k * stagger, inject, src, dst, nbytes, msg_id)
        base += len(targets) * stagger + pad

    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    if len(deliveries) != msg_id:
        raise RuntimeError(
            f"net_burst lost packets: {msg_id} sent, {len(deliveries)} delivered")

    stats = sorted(asdict(net.stats).items())
    d = digest(*sorted(deliveries), stats)
    x = net.express
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": sim.now,
        "digest": d,
        "checks": {"digest": d, "sim_ns": sim.now, "stats": stats},
        "express_stats": {
            "hits": x.hits(), "commits": x.commits, "loopback": x.loopback,
            "delivered": x.delivered, "revoked": x.revoked,
            "fallback_busy": x.fallback_busy,
            "fallback_active": x.fallback_active,
        },
    }


def _run_calib_workloads(engine, scale: Scale, traced: bool,
                         express: bool = True) -> dict:
    """The datacenter diversity shapes (incast / fan-out / streaming).

    Untraced; the per-workload digest covers only express-invariant
    observables (counts + simulated latencies), so the on/off oracle
    and the kernel oracle both apply to it.
    """
    from ..calib.workloads import run_workload_bench

    r = scale.calib_rounds
    shapes = [
        ("incast", {"senders": 4, "rounds": r, "burst": 3}),
        ("rpc_fanout", {"workers": 4, "rounds": r}),
        ("streaming", {"stages": 3, "messages": 3 * r}),
    ]
    wall = 0.0
    sim_ns = handled = 0
    digests: list[str] = []
    for name, kwargs in shapes:
        res = run_workload_bench(name, express=express,
                                 engine=engine, **kwargs)
        wall += res.wall_s
        sim_ns += res.sim_ns
        handled += res.handled
        digests.append(res.digest)
    return {
        "wall_s": wall,
        # the workload runner doesn't expose the kernel's event counter
        # per shape; report total handled messages as the work metric
        "events": handled,
        "sim_ns": sim_ns,
        "digest": None,
        "checks": {"digests": digests, "sim_ns": sim_ns, "handled": handled},
    }


_RUNNERS = {
    "logp_pingpong": _run_pingpong,
    "fig6_contention": _run_contention,
    "chaos_smoke": _run_chaos_smoke,
    "net_burst": _run_net_burst,
    "calib_workloads": _run_calib_workloads,
}

#: scenarios whose timeline digest is compared bit-for-bit across kernels
#: (net_burst's digest comes from its own delivery records, not the bus)
TRACED = {"logp_pingpong": True, "fig6_contention": False,
          "chaos_smoke": True, "net_burst": False, "calib_workloads": False}


def run_scenario(name: str, engine=None, scale: Scale = Scale(),
                 traced: Optional[bool] = None, express: bool = True) -> dict:
    """Run one named scenario; returns wall/events/sim_ns/digest/checks."""
    if traced is None:
        traced = TRACED[name]
    return _RUNNERS[name](engine, scale, traced, express)


# ------------------------------------------------------------------ suite
def check_express_equivalence(name: str, scale: Scale,
                              engine=None) -> tuple[dict, dict]:
    """Run ``name`` with the express path on and off; the mode-invariant
    end state (``checks``) must match bit for bit.  Returns both runs."""
    on = run_scenario(name, engine, scale, traced=False, express=True)
    off = run_scenario(name, engine, scale, traced=False, express=False)
    if on["checks"] != off["checks"]:
        raise RuntimeError(
            f"{name}: express and full-fidelity modes diverged:\n"
            f"  express: {on['checks']}\n  full:    {off['checks']}")
    return on, off


def _best(name: str, scale: Scale, repeat: int, *engines,
          express: bool = True) -> list[dict]:
    """Fastest of ``repeat`` untraced runs per engine.  The engines'
    runs are interleaved so transient machine load hits every side of a
    ratio equally."""
    runs = [[] for _ in engines]
    for _ in range(max(1, repeat)):
        for side, engine in zip(runs, engines):
            side.append(run_scenario(name, engine, scale, traced=False,
                                     express=express))
    return [min(side, key=lambda r: r["wall_s"]) for side in runs]


def _perf_cell(name: str, engine, scale: Scale, repeat: int) -> dict:
    """One scenario against its oracles: the reference kernel (identical
    end state and event count) and the express path forced off
    (identical end state).  Chaos is traced by construction — its audit
    is part of the scenario — so its speed passes trace too."""
    opt = run_scenario(name, engine, scale, traced=TRACED[name])
    ref = run_scenario(name, "reference", scale, traced=TRACED[name])
    if opt["checks"] != ref["checks"]:
        raise RuntimeError(
            f"optimized and reference kernels diverged:\n"
            f"  optimized: {opt['checks']}\n  reference: {ref['checks']}")
    if opt["events"] != ref["events"]:
        raise RuntimeError(
            f"kernels dispatched different event counts ({opt['events']} "
            f"vs {ref['events']}) — a fast path added or removed events")
    # Event counts are NOT compared across express modes: eliding
    # events is the express path's whole point.
    check_express_equivalence(name, scale, engine)

    best, ref_best = _best(name, scale, repeat, engine, "reference")
    rate = best["events"] / best["wall_s"]
    ref_rate = ref_best["events"] / ref_best["wall_s"]
    # events/sim_ns of the untraced pass: the work the speed figures time
    observables = {"events": best["events"], "sim_ns": best["sim_ns"],
                   "checks": opt["checks"]}
    measured = {
        "wall_s": round(best["wall_s"], 4),
        "events_per_sec": round(rate),
        "reference_events_per_sec": round(ref_rate),
        "speedup_vs_reference": round(rate / ref_rate, 3),
    }
    if name == "net_burst":
        # Express speedup as effective events/s: the full-mode event
        # count (the work represented) over the express wall.
        full, = _best(name, scale, repeat, engine, express=False)
        if full["checks"] != best["checks"]:
            raise RuntimeError("express and full-fidelity modes diverged")
        full_rate = full["events"] / full["wall_s"]
        effective = full["events"] / best["wall_s"]
        observables["full_events"] = full["events"]
        observables["express"] = best["express_stats"]
        measured.update(full_wall_s=round(full["wall_s"], 4),
                        full_events_per_sec=round(full_rate),
                        events_per_sec_effective=round(effective),
                        speedup_express=round(effective / full_rate, 3))
    # peak-heap pass at reduced scale, under tracemalloc
    tracemalloc.start()
    run_scenario(name, engine, scale.shrunk(), traced=name == "chaos_smoke")
    measured["peak_heap_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"observables": observables, "measured": measured}


def _perf_cells(engine=None, quick: bool = False, repeat: int = 3):
    scale = QUICK if quick else Scale()
    return [(name, lambda name=name: _perf_cell(name, engine, scale, repeat))
            for name in SCENARIOS]


PERF = register(Suite(
    "perf", _perf_cells, smoke={"quick": True},
    ratios=[(name, "speedup_vs_reference") for name in SCENARIOS]
    + [("net_burst", "speedup_express")]))
