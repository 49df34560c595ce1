"""The paper's evaluation as one bench suite: Figs. 3-7, §6.2 and §6.3.

One cell per configuration the ``benchmarks/`` figure checks assert on;
a cell's observables are the fields those checks read, so
``BENCH_FIGURES.json`` commits every measured number EXPERIMENTS.md
quotes.  The shape bounds live only in ``benchmarks/``, which reads its
inputs from these cells (``benchmarks/conftest.py``); the suite has no
gate of its own.  Every thunk rewinds the global id counters first, so
a cell's digest does not depend on which cells ran before it.

Cell keys:

* ``fig3/am``, ``fig3/gam`` — LogP Os/Or/L/g/RTT; ``fig3/am`` runs
  traced (observer-only) and adds the send/wire/recv/ack/total span
  stats;
* ``fig4/am_bw@80``, ``fig4/gam_bw@80`` — one-way streams of 80
  transfers per size (MB/s), with the AM curve's N½; ``fig4/rtt`` —
  bulk RTT(n) over 8 reps and its least-squares line;
* ``fig5/<bench>@<procs>`` — NPB speedup, comm fraction, time;
* ``fig6/one_vn@<clients>``, ``fig6/<st|mt>@<clients>x<frames>`` and
  the same under ``fig7/`` (8 KB requests) — client/server contention;
* ``sec63/balanced``, ``sec63/imbalanced`` — two time-shared Split-C
  apps on 8 nodes;
* ``linpack@100`` — the HPL model on 100 nodes.

Run through the harness::

    PYTHONPATH=src python -m repro bench figures          # -> BENCH_FIGURES.json
    PYTHONPATH=src python -m repro bench figures --smoke  # fig3, fig4, sec63, linpack
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict
from typing import Sequence

from ..apps.clientserver import ContentionConfig, run_contention
from ..apps.linpack import LinpackModel, linpack_gflops
from ..apps.npb import run_npb
from ..apps.timeshare import TimeshareConfig, run_timeshare
from ..cluster.builder import reset_global_ids
from ..cluster.config import ClusterConfig
from .bandwidth import (half_power_point, measure_am_bandwidth,
                        measure_am_rtt, measure_gam_bandwidth)
from .harness import Suite, register
from .logp import measure_am, measure_gam

__all__ = ["FIGURES"]

SMOKE_FIGURES = ("fig3", "fig4", "sec63", "linpack")

_LOGP_FIELDS = ("os_us", "or_us", "l_us", "g_us", "rtt_us",
                "total_overhead_us")
_CONTENTION_FIELDS = ("per_client_msgs_s", "aggregate_msgs_s",
                      "aggregate_mb_s", "remaps_per_s", "overrun_nacks",
                      "not_resident_nacks")

#: (benchmark, procs) of the Figure 5 cells
_NPB = (("bt", 1), ("bt", 4), ("bt", 16), ("lu", 4), ("lu", 16),
        ("cg", 16), ("mg", 16), ("ft", 16), ("is", 16), ("ep", 16))
#: (mode, clients, frames, duration_ms) of the Figure 6 cells
_FIG6 = (("one_vn", 1, 8, 80.0), ("one_vn", 2, 8, 80.0),
         ("one_vn", 3, 8, 80.0), ("one_vn", 4, 8, 80.0),
         ("one_vn", 8, 8, 100.0), ("st", 10, 8, 150.0),
         ("st", 10, 96, 80.0), ("mt", 10, 8, 100.0), ("mt", 10, 96, 100.0))
#: the same for Figure 7's 8 KB requests
_FIG7 = (("one_vn", 4, 8, 120.0), ("st", 4, 96, 120.0),
         ("st", 10, 8, 200.0), ("mt", 10, 8, 200.0))


def _logp(result) -> dict:
    obs = {f: getattr(result, f) for f in _LOGP_FIELDS}
    if result.phases is not None:
        obs["phases"] = {phase: {"count": st.count, "mean_us": st.mean_us,
                                 "max_us": st.max_us}
                         for phase, st in result.phases.items()}
    return obs


def _points(result) -> list:
    return [[p.nbytes, p.mb_s] for p in result.points]


def _am_bandwidth() -> dict:
    result = measure_am_bandwidth(count=80)
    return {"points": _points(result), "n_half": half_power_point(result)}


def _gam_bandwidth() -> dict:
    return {"points": _points(measure_gam_bandwidth(sizes=[8192], count=80))}


def _rtt() -> dict:
    rtt = measure_am_rtt(reps=8)
    slope, intercept = statistics.linear_regression(
        [float(n) for n, _ in rtt], [t for _, t in rtt])
    return {"rtt_us": rtt, "slope_us_per_byte": slope,
            "intercept_us": intercept}


def _npb(name: str, procs: int) -> dict:
    r = run_npb(name, procs)
    return {"speedup": r.speedup, "comm_fraction": r.comm_fraction,
            "time_s": r.time_s}


def _contention(config: ContentionConfig) -> dict:
    r = run_contention(config)
    return {f: getattr(r, f) for f in _CONTENTION_FIELDS}


def _timeshare(imbalance: float) -> dict:
    r = run_timeshare(TimeshareConfig(nnodes=8, napps=2, iterations=20,
                                      imbalance=imbalance))
    return {**asdict(r), "slowdown": r.slowdown, "comm_ratio": r.comm_ratio}


def _linpack() -> dict:
    m = LinpackModel()
    return {"gflops": linpack_gflops(100),
            "comm_over_compute": m.comm_seconds(ClusterConfig())
            / m.compute_seconds()}


def _contention_cells(fig: str, specs, msg_bytes: int, warmup_ms: float):
    cells = []
    for mode, clients, frames, duration_ms in specs:
        key = (f"{fig}/one_vn@{clients}" if mode == "one_vn"
               else f"{fig}/{mode}@{clients}x{frames}")
        config = ContentionConfig(
            nclients=clients, msg_bytes=msg_bytes, mode=mode, frames=frames,
            duration_ms=duration_ms, warmup_ms=warmup_ms)
        cells.append((key, lambda config=config: _contention(config)))
    return cells


#: figure -> ordered ``(key, measure)`` pairs
_MEASURES = {
    "fig3": [("fig3/am", lambda: _logp(measure_am(trace=True))),
             ("fig3/gam", lambda: _logp(measure_gam()))],
    "fig4": [("fig4/am_bw@80", _am_bandwidth),
             ("fig4/gam_bw@80", _gam_bandwidth),
             ("fig4/rtt", _rtt)],
    "fig5": [(f"fig5/{name}@{procs}",
              lambda name=name, procs=procs: _npb(name, procs))
             for name, procs in _NPB],
    "fig6": _contention_cells("fig6", _FIG6, msg_bytes=0, warmup_ms=70.0),
    "fig7": _contention_cells("fig7", _FIG7, msg_bytes=8192, warmup_ms=80.0),
    "sec63": [("sec63/balanced", lambda: _timeshare(0.0)),
              ("sec63/imbalanced", lambda: _timeshare(0.8))],
    "linpack": [("linpack@100", _linpack)],
}


def _cell(measure):
    def thunk() -> dict:
        reset_global_ids()
        t0 = time.perf_counter()
        observables = measure()
        return {"observables": observables,
                "measured": {"wall_s": round(time.perf_counter() - t0, 4)}}
    return thunk


def _cells(figures: Sequence[str] = tuple(_MEASURES)):
    return [(key, _cell(measure))
            for fig in figures for key, measure in _MEASURES[fig]]


FIGURES = register(Suite("figures", _cells, smoke={"figures": SMOKE_FIGURES}))
