"""The (topology × node-pair × message-size × pattern) calibration sweep.

Every cell builds a fresh cluster on one of the canonical topologies,
drives one traffic pattern between one node pair with the trace bus
attached, and reduces the observed spans to plain
:class:`~repro.calib.fitter.Observation` rows:

* **pingpong** cells measure the host overheads (o_s, o_r) directly —
  Figure 3's :func:`~repro.bench.logp.overheads` — and contribute one
  ``oneway`` row per steady request span (enqueue → endpoint delivery
  at the cell's route length and payload size), sampling the latency
  surface;
* **flood** cells flood 16-byte requests through the full credit window
  and contribute the steady-state delivery spacing as the ``gap`` row;
* **bulk** cells flood single-fragment bulk payloads (SBus-DMA path)
  and contribute the spacing as a ``bulk_gap`` row — the per-byte slope
  across bulk sizes is G.

One *global* least-squares fit consumes every cell's rows (the route-
length diversity across topologies is what makes the per-link latency
term identifiable), and :func:`~repro.calib.model.round_trip` compares
the fit against the closed-form configured model — on every canonical
cell for L, and globally for the scalar constants.  Divergence beyond
tolerance fails the suite.

Determinism: each cell rewinds the global id counters, uses a fixed
seed, and digests only integer observables, so the ``--smoke`` double
run must be bit-identical.

Run through the harness::

    PYTHONPATH=src python -m repro bench calib --smoke   # CI gate
    PYTHONPATH=src python -m repro bench calib           # -> BENCH_CALIB.json
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..am.vnet import parallel_vnet
from ..bench.harness import Suite, digest, register
from ..bench.logp import overheads
from ..chaos.runner import reset_global_ids
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..obs import message_spans
from ..sim.core import ms
from .fitter import Observation, fit_constants
from .model import configured_model, round_trip

__all__ = ["TOPOLOGIES", "CalibCell", "CalibCellResult", "default_cells",
           "run_cell", "fit_cells"]

#: canonical topologies: name -> hosts (switch_radix 8 => 4 hosts/leaf;
#: leaf4 is a single leaf, the larger ones are two-level Clos fabrics)
TOPOLOGIES = {"leaf4": 4, "clos16": 16, "clos64": 64}


@dataclass(frozen=True)
class CalibCell:
    """One sweep cell."""

    topology: str
    pair: tuple[int, int]
    pattern: str  # "pingpong" | "flood" | "bulk"
    nbytes: int
    rounds: int

    @property
    def label(self) -> str:
        a, b = self.pair
        return f"{self.topology}/{a}-{b}/{self.pattern}/{self.nbytes}B"


@dataclass
class CalibCellResult:
    """One executed cell: observation rows + the determinism digest."""

    cell: CalibCell
    links: int
    observations: list[Observation] = field(default_factory=list)
    #: headline number for the report table (oneway mean / gap / bulk gap)
    headline_ns: float = 0.0
    os_ns: int = 0
    or_ns: int = 0
    samples: int = 0
    sim_ns: int = 0
    events: int = 0
    digest: str = ""
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.label,
            "links": self.links,
            "pattern": self.cell.pattern,
            "nbytes": self.cell.nbytes,
            "headline_ns": round(self.headline_ns, 3),
            "os_ns": self.os_ns,
            "or_ns": self.or_ns,
            "samples": self.samples,
            "sim_ns": self.sim_ns,
            "events": self.events,
            "digest": self.digest,
        }


def default_cells(smoke: bool) -> list[CalibCell]:
    """The canonical cell matrix (reduced under ``--smoke``)."""
    cells: list[CalibCell] = []
    pp_pairs = [("leaf4", (0, 1)), ("clos16", (0, 1)), ("clos16", (0, 5))]
    pp_sizes: Sequence[int] = (16, 128) if smoke else (16, 64, 128)
    pp_rounds = 12 if smoke else 24
    if not smoke:
        pp_pairs += [("clos16", (2, 3)), ("clos64", (0, 33))]
    for topo, pair in pp_pairs:
        for size in pp_sizes:
            cells.append(CalibCell(topo, pair, "pingpong", size, pp_rounds))
    flood_pairs = [("leaf4", (0, 1)), ("clos16", (0, 5))]
    if not smoke:
        flood_pairs.append(("clos64", (0, 33)))
    for topo, pair in flood_pairs:
        cells.append(CalibCell(topo, pair, "flood", 16,
                               160 if smoke else 360))
    # bulk sizes start at 4096: below that the sender's SBus read rate
    # is close enough to the receiver's write rate that the pipeline
    # phase-couples and the spacing no longer isolates the write DMA
    bulk_sizes: Sequence[int] = (4096, 8192) if smoke else (4096, 6144, 8192)
    bulk_rounds = 14 if smoke else 24
    for size in bulk_sizes:
        cells.append(CalibCell("clos16", (0, 5), "bulk", size, bulk_rounds))
    if not smoke:
        for size in (4096, 8192):
            cells.append(CalibCell("leaf4", (0, 1), "bulk", size, bulk_rounds))
    return cells


def run_cell(cell: CalibCell, *, seed: int = 1999,
             engine=None) -> CalibCellResult:
    """Execute one cell deterministically and reduce it to observations."""
    reset_global_ids()
    cfg = ClusterConfig(num_hosts=TOPOLOGIES[cell.topology], seed=seed)
    cluster = Cluster(cfg, engine=engine)
    sim = cluster.sim
    a, b = cell.pair
    res = CalibCellResult(
        cell=cell, links=len(cluster.network.topology.route(a, b)))
    vnet = cluster.run_process(parallel_vnet(cluster, [a, b]), "calib.setup")
    ep0, ep1 = vnet[0], vnet[1]

    # warm both endpoints resident so the cell measures the steady state
    cluster.run_process(cluster.node(a).driver.write_fault(ep0.state), "calib.w0")
    cluster.run_process(cluster.node(b).driver.write_fault(ep1.state), "calib.w1")
    cluster.run(until=sim.now + ms(10))
    # tracing attached post-warmup: spans reflect only the measurement
    bus = cluster.enable_tracing()

    marks: dict[str, int] = {}
    done: list[int] = []

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def drain_replies(thr):
        for _ in range(100_000):
            got = yield from ep0.poll(thr, limit=8)
            if not got and not ep0._outstanding:
                return
        raise RuntimeError(f"{cell.label}: sender could not drain")

    send_ep = {
        "request": lambda thr, _dst, nbytes: ep0.request(thr, 1, None, nbytes=nbytes),
        "poll": lambda thr, limit: ep0.poll(thr, limit=limit),
        "has_reply": lambda: bool(ep0.state.recv_replies),
    }

    def sender(thr):
        # one warm round absorbs the cold start
        yield from ep0.request(thr, 1, None, nbytes=16)
        yield from drain_replies(thr)
        if cell.pattern == "pingpong":
            marks["os"], marks["or"] = yield from overheads(
                thr, send_ep, drain_replies)
            marks["t_meas"] = sim.now
            for _ in range(cell.rounds):
                yield from ep0.request(thr, 1, None, nbytes=cell.nbytes)
                yield from drain_replies(thr)
        else:
            # flood / bulk: keep the credit window full; spacing at the
            # receiver NI is the steady-state per-message occupancy
            marks["t_meas"] = sim.now
            for _ in range(cell.rounds):
                yield from ep0.request(thr, 1, None, nbytes=cell.nbytes)
                yield from ep0.poll(thr, limit=2)
            yield from drain_replies(thr)
        done.append(1)

    cluster.node(b).start_process("calib.r").spawn_thread(receiver, "recv")
    cluster.node(a).start_process("calib.s").spawn_thread(sender, "send")
    t0_wall = time.perf_counter()
    sim.run(until=sim.now + ms(4_000), stop=lambda: bool(done))
    res.wall_s = time.perf_counter() - t0_wall
    if not done:
        raise RuntimeError(f"calibration cell {cell.label} did not converge")

    spans = [sp for sp in message_spans(bus, complete_only=True)
             if sp.src == a and sp.nbytes == cell.nbytes
             and sp.enq_ts is not None and sp.enq_ts >= marks["t_meas"]]
    bus.detach()
    res.samples = len(spans)
    res.sim_ns = sim.now
    res.events = sim.events_dispatched

    if cell.pattern == "pingpong":
        if len(spans) != cell.rounds:
            raise RuntimeError(
                f"{cell.label}: expected {cell.rounds} request spans, "
                f"saw {len(spans)}")
        res.os_ns = marks["os"]
        res.or_ns = marks["or"]
        res.observations.append(Observation("os", float(marks["os"])))
        res.observations.append(Observation("or", float(marks["or"])))
        oneways = [sp.oneway_ns for sp in spans]
        for ow in oneways:
            res.observations.append(Observation(
                "oneway", float(ow), nbytes=cell.nbytes, links=res.links))
        res.headline_ns = sum(oneways) / len(oneways)
        raw = [(sp.enq_ts, sp.tx_ts, sp.net_ts, sp.deliver_ts, sp.ack_ts)
               for sp in spans]
        material = (cell.label, marks["os"], marks["or"], raw)
    else:
        delivers = sorted(sp.deliver_ts for sp in spans)
        if len(delivers) < cell.rounds:
            raise RuntimeError(
                f"{cell.label}: expected {cell.rounds} deliveries, "
                f"saw {len(delivers)}")
        # steady-state spacing over the middle half (skips the window
        # ramp-up and the drain tail)
        lo, hi = len(delivers) // 4, 3 * len(delivers) // 4
        spacing = (delivers[hi] - delivers[lo]) / (hi - lo)
        kind = "gap" if cell.pattern == "flood" else "bulk_gap"
        res.observations.append(Observation(kind, spacing, nbytes=cell.nbytes))
        res.headline_ns = spacing
        material = (cell.label, delivers)
    res.digest = digest((material, res.sim_ns, res.events))
    return res


def fit_cells(results: Sequence[CalibCellResult], *, seed: int = 1999,
              tolerance: float = 0.10):
    """One global least-squares fit over every cell's observations,
    round-tripped against the configured model.  Returns ``(fit,
    configured, comparisons, failures)``."""
    fit = fit_constants([ob for r in results for ob in r.observations])
    configured = configured_model(
        ClusterConfig(num_hosts=TOPOLOGIES["clos16"], seed=seed))
    geometry = [(r.cell.label, r.links, r.cell.nbytes)
                for r in results if r.cell.pattern == "pingpong"]
    comparisons, failures = round_trip(fit, configured, geometry,
                                       tolerance=tolerance)
    return fit, configured, comparisons, failures


# ------------------------------------------------------------------ suite
def _cells(engine=None, small: bool = False, seed: int = 1999,
           tolerance: float = 0.10):
    """Sweep cells, then the fit over all of them."""
    runs: dict[str, CalibCellResult] = {}

    def sweep(cell):
        runs[cell.label] = res = run_cell(cell, seed=seed, engine=engine)
        return {"observables": res.to_dict(),
                "measured": {"wall_s": round(res.wall_s, 4)}}

    def fit():
        fitted, configured, comparisons, failures = fit_cells(
            list(runs.values()), seed=seed, tolerance=tolerance)
        return {"observables": {"fitted": fitted.to_json(),
                                "configured": configured.to_json(),
                                "comparisons": comparisons,
                                "failures": failures}}

    cells = [(c.label, lambda c=c: sweep(c)) for c in default_cells(small)]
    cells.append(("fit", fit))
    return cells


def _round_trip(cells: dict) -> list[str]:
    fit = cells.get("fit")
    return [] if fit is None else list(fit["observables"]["failures"])


CALIB = register(Suite("calib", _cells, smoke={"small": True},
                       gates=(_round_trip,)))
