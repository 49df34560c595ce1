"""Deterministic oracles for the event-kernel hot path.

Runs four canonical scenarios —

* **logp_pingpong**  — the Figure 3 request/reply cycle, back to back;
* **fig6_contention** — the Section 6.4 client/server thrash (OneVN);
* **chaos_smoke**    — one deterministic chaos run (mixed faults,
  pairwise workload) with the delivery-contract audit on;
* **calib_workloads** — the datacenter diversity shapes from
  :mod:`repro.calib.workloads` (incast, RPC fan-out, streaming
  pipeline) at reduced scale, digesting their express-invariant
  observables;

— and holds each to two machine-independent oracles:

* **kernel identity.**  :class:`repro.sim.ReferenceSimulator` keeps the
  pre-optimization generic scheduling paths (no entry pool, no timeout
  free-list, no typed resume dispatch).  Both kernels run the *same*
  library code, so each scenario replayed on both must produce the same
  end state (bit-identical timeline digests for ``logp_pingpong`` and
  ``chaos_smoke``, which always trace) and the same number of
  dispatched kernel events — the fast paths may make events cheaper,
  never add or remove them.
* **express equivalence.**  Each scenario replayed with the fabric's
  express delivery path (``ClusterConfig.express_path``) forced off
  must reach the same mode-invariant end state bit for bit — express
  elides kernel *events*, never observable behaviour.

A trace bus never changes the code path, so the scenarios that trace
exercise the express path like the others.  Each cell's observables are
the event count, simulated clock and end state of the express-on run,
so the cell digests in ``BENCH_PERF.json`` are independent of the machine.
Wall time is not measured here: the performance ledger (``ledger/``)
times whole paper workloads and judges a change against its parent.

Run through the harness::

    PYTHONPATH=src python -m repro bench perf            # -> BENCH_PERF.json
    PYTHONPATH=src python -m repro bench perf --smoke    # CI gate
"""

from __future__ import annotations

from dataclasses import dataclass

from ..am.vnet import parallel_vnet
from ..apps.clientserver import ContentionConfig, run_contention
from ..chaos import (ScheduleGenerator, chaos_config, reset_global_ids,
                     run_chaos, timeline_digest)
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..sim import ms
from .harness import Suite, register

__all__ = ["SCENARIOS", "Scale", "QUICK", "run_scenario"]

SCENARIOS = ("logp_pingpong", "fig6_contention", "chaos_smoke",
             "calib_workloads")

@dataclass(frozen=True)
class Scale:
    """Problem sizes for one harness pass."""

    pingpong_rounds: int = 600
    contention_warmup_ms: float = 40.0
    contention_duration_ms: float = 60.0
    chaos_duration_ns: int = 8_000_000
    calib_rounds: int = 6


QUICK = Scale(pingpong_rounds=200, contention_warmup_ms=20.0,
              contention_duration_ms=25.0, chaos_duration_ns=4_000_000,
              calib_rounds=4)


# --------------------------------------------------------------- scenarios
def _run_pingpong(engine, scale: Scale, express: bool = True) -> dict:
    """N request/reply round trips between two endpoints (Figure 3 cycle),
    with a trace bus attached so its timeline digest is compared across
    kernels."""
    reset_global_ids()
    rounds = scale.pingpong_rounds
    cluster = Cluster(ClusterConfig(num_hosts=4, express_path=express),
                      engine=engine)
    bus = cluster.enable_tracing()
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
    sim.run(until=sim.now + ms(30_000), stop=lambda: bool(done))
    if not done:
        raise RuntimeError("ping-pong did not complete inside the time budget")
    digest = timeline_digest(bus.events)
    bus.detach()
    return {
        "events": sim.events_dispatched,
        "sim_ns": sim.now,
        # end-state that must be identical across kernels
        "checks": {"rounds": rounds, "sim_ns": sim.now, "digest": digest},
    }


def _run_contention(engine, scale: Scale, express: bool = True) -> dict:
    """Figure 6 OneVN contention: 4 clients thrash one shared endpoint."""
    reset_global_ids()
    ccfg = ContentionConfig(
        nclients=4, mode="one_vn",
        warmup_ms=scale.contention_warmup_ms,
        duration_ms=scale.contention_duration_ms,
        base=ClusterConfig(express_path=express),
    )
    res = run_contention(ccfg, engine=engine)
    return {
        "events": res.events_dispatched,
        "sim_ns": res.sim_ns,
        "checks": {
            "sim_ns": res.sim_ns,
            "aggregate_msgs_s": round(res.aggregate_msgs_s, 6),
            "per_client_msgs_s": [round(x, 6) for x in res.per_client_msgs_s],
            "remaps_per_s": round(res.remaps_per_s, 6),
        },
    }


def _run_chaos_smoke(engine, scale: Scale, express: bool = True) -> dict:
    """One audited chaos run (mixed faults, pairwise workload, 8 hosts)."""
    gen = ScheduleGenerator(
        1, num_hosts=8, num_spines=2, num_procs=4, num_eps=4,
        duration_ns=scale.chaos_duration_ns, profile="rough",
    )
    scenario = gen.generate("mixed")
    cfg = chaos_config(scenario.seed, num_hosts=8, express_path=express)
    report = run_chaos(scenario, "pairwise", cfg=cfg, num_hosts=8, keep=True,
                       engine=engine)
    if not report.ok:
        raise RuntimeError(
            f"chaos smoke run violated the delivery contract: {report.violations}")
    sim = report.cluster.sim  # type: ignore[attr-defined]
    return {
        "events": sim.events_dispatched,
        "sim_ns": report.sim_ns,
        "checks": {
            "digest": report.digest,
            "sim_ns": report.sim_ns,
            "accepted": report.accepted,
            "delivered": report.delivered,
            "returned": report.returned,
        },
    }


def _run_calib_workloads(engine, scale: Scale, express: bool = True) -> dict:
    """The datacenter diversity shapes (incast / fan-out / streaming).

    No trace bus; the per-workload digest covers only express-invariant
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
    sim_ns = handled = 0
    digests: list[str] = []
    for name, kwargs in shapes:
        res = run_workload_bench(name, express=express,
                                 engine=engine, **kwargs)
        sim_ns += res.sim_ns
        handled += res.handled
        digests.append(res.digest)
    return {
        # the workload runner doesn't expose the kernel's event counter
        # per shape; report total handled messages as the work metric
        "events": handled,
        "sim_ns": sim_ns,
        "checks": {"digests": digests, "sim_ns": sim_ns, "handled": handled},
    }


_RUNNERS = {
    "logp_pingpong": _run_pingpong,
    "fig6_contention": _run_contention,
    "chaos_smoke": _run_chaos_smoke,
    "calib_workloads": _run_calib_workloads,
}

def run_scenario(name: str, engine=None, scale: Scale = Scale(),
                 express: bool = True) -> dict:
    """Run one named scenario; returns events/sim_ns/checks."""
    return _RUNNERS[name](engine, scale, express)


# ------------------------------------------------------------------ suite
def check_express_equivalence(name: str, scale: Scale,
                              engine=None) -> tuple[dict, dict]:
    """Run ``name`` with the express path on and off; the mode-invariant
    end state (``checks``) must match bit for bit.  Returns both runs."""
    on = run_scenario(name, engine, scale, express=True)
    off = run_scenario(name, engine, scale, express=False)
    if on["checks"] != off["checks"]:
        raise RuntimeError(
            f"{name}: express and full-fidelity modes diverged:\n"
            f"  express: {on['checks']}\n  full:    {off['checks']}")
    return on, off


def _perf_cell(name: str, engine, scale: Scale) -> dict:
    """One scenario against its oracles: the reference kernel (identical
    end state and event count) and the express path forced off
    (identical end state)."""
    opt, _ = check_express_equivalence(name, scale, engine)
    ref = run_scenario(name, "reference", scale)
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
    return {"observables": {"events": opt["events"], "sim_ns": opt["sim_ns"],
                            "checks": opt["checks"]}}


def _perf_cells(engine=None, quick: bool = False):
    scale = QUICK if quick else Scale()
    return [(name, lambda name=name: _perf_cell(name, engine, scale))
            for name in SCENARIOS]


PERF = register(Suite("perf", _perf_cells, smoke={"quick": True}))
