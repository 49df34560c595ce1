"""Noisy-neighbor calibration: L and g under a background bulk tenant.

The main sweep (:mod:`repro.calib.sweep`) measures the LogP constants
on an otherwise idle fabric.  These cells re-measure the two constants
a co-tenant can actually perturb — the one-way latency surface sample L
(pingpong) and the small-message steady-state gap g (flood) — while a
**background bulk tenant** blasts continuous single-fragment transfers
from the other two leaf4 hosts into a sink *co-located on the probe's
peer node*: the same shared-NI coupling as
:class:`repro.tenant.interference.InterferenceWorkload`, so the probe's
messages compete with the bulk tenant for node 1's NI service rotation
and host link.

Each pattern runs under two background variants — the bulk tenant
unlimited, and rate-capped by its token bucket — so the report shows
both the raw contention penalty and how much of it the tenant layer's
rate knob claws back.  Contended values are reported *alongside* the
idle fit (never fed into it: the global least-squares surface must stay
an idle-fabric property), as ``contended`` rows in ``BENCH_CALIB.json``
with the inflation ratio over the matching idle cell.

Determinism follows the sweep pattern: fixed seed, global id counters
rewound per cell, digest over the probe's raw span timestamps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..am.vnet import parallel_vnet
from ..bench.harness import digest
from ..chaos.runner import reset_global_ids
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..obs import message_spans
from ..sim.core import ms
from ..tenant.core import TenantRegistry

__all__ = ["ContendedCellResult", "CONTENDED_VARIANTS", "run_contended_cell"]

#: background-tenant variants: label -> rate cap (msgs/s; None = unlimited)
CONTENDED_VARIANTS: dict[str, Optional[float]] = {
    "unlimited": None,
    "rate2k": 2_000.0,
}

_BULK_NBYTES = 4_096  # single fragment: continuous pressure, no credit games


@dataclass
class ContendedCellResult:
    """One contended measurement, reduced like a sweep cell."""

    pattern: str  # "pingpong" | "flood"
    nbytes: int
    variant: str
    headline_ns: float = 0.0
    samples: int = 0
    #: background-tenant activity during the cell (sanity: contention real)
    bulk_serviced: int = 0
    bulk_throttled: int = 0
    sim_ns: int = 0
    events: int = 0
    digest: str = ""
    wall_s: float = 0.0

    @property
    def label(self) -> str:
        return f"contended/{self.pattern}/{self.nbytes}B/{self.variant}"

    def to_dict(self) -> dict:
        return {
            "cell": self.label,
            "pattern": self.pattern,
            "nbytes": self.nbytes,
            "variant": self.variant,
            "headline_ns": round(self.headline_ns, 3),
            "samples": self.samples,
            "bulk_serviced": self.bulk_serviced,
            "bulk_throttled": self.bulk_throttled,
            "sim_ns": self.sim_ns,
            "events": self.events,
            "digest": self.digest,
        }


def run_contended_cell(pattern: str, *, variant: str = "unlimited",
                       nbytes: int = 16, rounds: int = 24,
                       seed: int = 1999) -> ContendedCellResult:
    """Measure one probe pattern on leaf4 under the background tenant.

    Probe: node 0 -> node 1 (the sweep's leaf4 geometry).  Background:
    sources on nodes 2 and 3 stream bulk requests into a sink endpoint
    on node 1 for the whole measurement window.
    """
    rate = CONTENDED_VARIANTS[variant]
    reset_global_ids()
    cfg = ClusterConfig(num_hosts=4, seed=seed)
    cluster = Cluster(cfg)
    sim = cluster.sim
    res = ContendedCellResult(pattern=pattern, nbytes=nbytes, variant=variant)

    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "cont.setup")
    ep0, ep1 = vnet[0], vnet[1]
    # rank 0 = sink on node 1 (shares the probe peer's NI), 1/2 = sources
    bnet = cluster.run_process(parallel_vnet(cluster, [1, 2, 3]), "cont.bg")
    sink, src2, src3 = bnet[0], bnet[1], bnet[2]

    registry = TenantRegistry()
    probe_t = registry.create("probe", weight=4, frame_reservation=1)
    bulk_t = registry.create("bulk", rate_msgs_per_s=rate)
    probe_t.adopt(ep0, ep1)
    bulk_t.adopt(sink, src2, src3)
    registry.validate_against(cfg.endpoint_frames)

    # warm everything resident: the cell measures the steady state
    for node_id, ep in ((0, ep0), (1, ep1), (1, sink), (2, src2), (3, src3)):
        cluster.run_process(cluster.node(node_id).driver.write_fault(ep.state),
                            f"cont.w{node_id}")
    cluster.run(until=sim.now + ms(10))
    bus = cluster.enable_tracing()

    marks: dict[str, int] = {}
    done: list[int] = []

    def bg_sender(ep):
        def body(thr):
            while not done:
                if ep.credits_available(0) >= 1:
                    yield from ep.request(thr, 0, None, nbytes=_BULK_NBYTES)
                else:
                    got = yield from ep.poll(thr, limit=4)
                    if not got:
                        yield from thr.compute(2_000)
        return body

    def bg_sink(thr):
        while not done:
            got = yield from sink.poll(thr, limit=8)
            if not got:
                yield from thr.compute(2_000)

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def drain_replies(thr):
        for _ in range(100_000):
            got = yield from ep0.poll(thr, limit=8)
            if not got and not ep0._outstanding:
                return
        raise RuntimeError(f"{res.label}: probe could not drain")

    def sender(thr):
        # let the background ramp to steady state before measuring
        yield from thr.compute(200_000)
        yield from ep0.request(thr, 1, None, nbytes=16)
        yield from drain_replies(thr)
        marks["t_meas"] = sim.now
        if pattern == "pingpong":
            for _ in range(rounds):
                yield from ep0.request(thr, 1, None, nbytes=nbytes)
                yield from drain_replies(thr)
        elif pattern == "flood":
            for _ in range(rounds):
                yield from ep0.request(thr, 1, None, nbytes=nbytes)
                yield from ep0.poll(thr, limit=2)
            yield from drain_replies(thr)
        else:
            raise ValueError(f"unknown contended pattern {pattern!r}")
        done.append(1)

    cluster.node(1).start_process("cont.sink").spawn_thread(bg_sink, "sink")
    cluster.node(2).start_process("cont.b2").spawn_thread(bg_sender(src2), "b2")
    cluster.node(3).start_process("cont.b3").spawn_thread(bg_sender(src3), "b3")
    cluster.node(1).start_process("cont.r").spawn_thread(receiver, "recv")
    cluster.node(0).start_process("cont.s").spawn_thread(sender, "send")

    t0_wall = time.perf_counter()
    sim.run(until=sim.now + ms(4_000), stop=lambda: bool(done))
    res.wall_s = time.perf_counter() - t0_wall
    if not done:
        raise RuntimeError(f"contended cell {res.label} did not converge")

    spans = [sp for sp in message_spans(bus, complete_only=True)
             if sp.src == 0 and sp.nbytes == nbytes
             and sp.enq_ts is not None and sp.enq_ts >= marks["t_meas"]]
    bus.detach()
    res.samples = len(spans)
    res.sim_ns = sim.now
    res.events = sim.events_dispatched
    res.bulk_serviced = bulk_t.stats.msgs_serviced
    res.bulk_throttled = bulk_t.stats.throttled

    if pattern == "pingpong":
        if len(spans) != rounds:
            raise RuntimeError(f"{res.label}: expected {rounds} spans, "
                               f"saw {len(spans)}")
        oneways = [sp.oneway_ns for sp in spans]
        res.headline_ns = sum(oneways) / len(oneways)
        material = (res.label,
                    [(sp.enq_ts, sp.deliver_ts) for sp in spans])
    else:
        delivers = sorted(sp.deliver_ts for sp in spans)
        if len(delivers) < rounds:
            raise RuntimeError(f"{res.label}: expected {rounds} deliveries, "
                               f"saw {len(delivers)}")
        lo, hi = len(delivers) // 4, 3 * len(delivers) // 4
        res.headline_ns = (delivers[hi] - delivers[lo]) / (hi - lo)
        material = (res.label, delivers)

    res.digest = digest((material, res.sim_ns, res.events,
                         res.bulk_serviced, res.bulk_throttled))
    return res
