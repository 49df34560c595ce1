"""Fleet-scale overcommit: hundreds of hosts, 10^5–10^6 endpoints.

The Section 6.4 cell (:mod:`repro.scale.loadgen`) proves graceful
degradation at *one* server NI with full packet-level fidelity.  The
ROADMAP's north star ("millions of users") needs the same claim at fleet
shape — hundreds of hosts × several server NIs × 10^5–10^6 endpoints —
where simulating every packet is neither possible nor necessary: what is
under test is the *residency machinery* (tables, policies, the
rate-limited remap engine), not the wire protocol already gated by the
packet-level suites.

So the fleet sweep is a deterministic tick-based macro-model built
directly on the production residency components:

* every NI's endpoint population is a real
  :class:`repro.nic.endpoint_state.EndpointTable` — the same
  struct-of-arrays store the firmware and segment driver use, which is
  what makes 10^5 endpoints fit in tens of MB (DESIGN.md §15);
* victim selection runs the *registered* policies
  (:data:`repro.osim.segdriver.REPLACEMENT_POLICIES`) through the same
  integer-row ``choose_row`` interface the segment driver calls — the
  fleet differentiates `lru`/`clock`/`active-preference` with the exact
  production code, no re-implementation;
* the remap engine is serial and rate-limited to the paper's measured
  200–300 re-mappings/s per NI (§6.4.1), so overcommit pressure shows up
  as deferred work, exactly as on the real driver;
* arrival shapes come from :data:`repro.scale.loadgen.ARRIVAL_MODELS`
  (`uniform` / `diurnal` / `bursty`) with per-host phase spreading, and
  each NI's active ("hot") endpoint set churns every tick so policies
  face a moving working set.

Each (hosts × ratio × policy) cell costs O(arrivals + remaps + frames)
per tick — independent of the endpoint count — and digests its integer
observables; the suite fails on any zero-goodput cell or a tracemalloc
peak above the documented budget at the 10^5-endpoint cell, and
``--smoke`` also runs every cell twice and fails on any digest mismatch.

Run through the harness::

    PYTHONPATH=src python -m repro bench fleet --smoke
    PYTHONPATH=src python -m repro bench fleet           # -> BENCH_FLEET.json
    PYTHONPATH=src python -c "from repro.api import run_bench; \\
        run_bench('fleet', hosts_list=(64, 256), ratios=(16, 98))"
"""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional, Sequence

from ..bench.harness import Suite, digest, register
from ..nic.endpoint_state import (
    F_MR_REQUESTED,
    F_REFERENCED,
    RES_ONHOST_RO,
    RES_ONNIC_RW,
    EndpointTable,
)
from ..osim.segdriver import REPLACEMENT_POLICIES
from .loadgen import ARRIVAL_MODELS
from .sweep import zero_goodput

__all__ = [
    "DEFAULT_FLEET_POLICIES",
    "DEFAULT_FLEET_RATIOS",
    "FleetCellConfig",
    "FleetCellResult",
    "run_fleet_cell",
    "run_memcheck",
]

DEFAULT_FLEET_POLICIES = ("random", "lru", "clock", "active-preference")
DEFAULT_FLEET_RATIOS = (4, 16, 64)
#: hosts × nis × frames × ratio = 64 × 2 × 8 × 98 = 100 352 endpoints:
#: the acceptance cell (10^5 endpoints across ≥ 64 hosts)
MEMCHECK_CELL = dict(hosts=64, nis_per_host=2, endpoint_frames=8, ratio=98)
#: documented peak-memory budget for the 10^5-endpoint cell (all
#: endpoint/channel state, tracemalloc-measured; see EXPERIMENTS.md)
MEMCHECK_BUDGET_MB = 100.0


@dataclass
class FleetCellConfig:
    """One (hosts, ratio, policy, arrival) point of the fleet sweep."""

    policy: str = "lru"
    hosts: int = 64
    #: server NIs per host (a fleet host fronts several boards)
    nis_per_host: int = 2
    endpoint_frames: int = 8
    #: endpoints per NI frame (1 = no overcommit)
    ratio: int = 16
    arrival: str = "diurnal"
    #: macro-model ticks (one tick ≈ ``tick_us`` of fleet time)
    ticks: int = 192
    #: ticks excluded from the goodput-floor tracking while residency
    #: warms up from the all-cold start (None = ticks // 4)
    warmup_ticks: Optional[int] = None
    tick_us: float = 1000.0
    #: serial remap-engine capacity per NI (§6.4.1 measured 200-300/s)
    remaps_per_s: float = 285.0
    #: peak message arrivals per NI per tick
    msgs_per_ni_tick: int = 48
    #: fraction of a NI's endpoints in the active set at any moment
    hot_fraction: float = 0.3
    #: active-set members replaced per tick, as a fraction of the set
    churn_fraction: float = 0.02
    #: an eviction bounces if its victim is re-touched within this window
    bounce_us: float = 4000.0
    seed: int = 1999

    @property
    def endpoints_per_ni(self) -> int:
        return self.ratio * self.endpoint_frames

    @property
    def n_nis(self) -> int:
        return self.hosts * self.nis_per_host

    @property
    def total_endpoints(self) -> int:
        return self.n_nis * self.endpoints_per_ni

    def key(self) -> tuple:
        return (self.policy, self.hosts, self.nis_per_host,
                self.endpoint_frames, self.ratio, self.arrival,
                self.ticks, self.seed)


@dataclass
class FleetCellResult:
    """Integer observables of one fleet cell (all digest inputs)."""

    policy: str
    hosts: int
    nis_per_host: int
    frames: int
    ratio: int
    arrival: str
    total_endpoints: int
    seed: int
    # goodput
    completed: int = 0
    deferred: int = 0
    goodput_msgs_s: float = 0.0
    #: minimum fleet-wide goodput over any single tick (the floor the
    #: graceful-degradation gate cares about at the diurnal trough)
    tick_goodput_min: int = 0
    # residency machinery (fleet totals)
    remaps: int = 0
    evictions: int = 0
    bounced_evictions: int = 0
    thrash_score: float = 0.0
    #: peak backlog of pending make-resident requests across the fleet
    remap_backlog_peak: int = 0
    # memory
    table_bytes: int = 0
    bytes_per_endpoint: float = 0.0
    tracemalloc_peak_bytes: int = 0
    # bookkeeping
    wall_s: float = 0.0
    digest: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class _NiSim:
    """Macro-model of one server NI: a real EndpointTable + policy under
    a rate-limited serial remap engine."""

    __slots__ = ("table", "policy", "rng", "phase", "remap_q", "hot",
                 "credit", "credit_per_tick", "bounce_ns", "tick_ns",
                 "goodput", "deferred", "remaps", "evictions", "bounces")

    def __init__(self, fcfg: FleetCellConfig, ni_id: int):
        n = fcfg.endpoints_per_ni
        self.table = EndpointTable(node=ni_id, frames=fcfg.endpoint_frames)
        for i in range(n):
            self.table.add_row(i)
        self.rng = random.Random((fcfg.seed << 20) ^ (ni_id * 2654435761))
        self.policy = REPLACEMENT_POLICIES[fcfg.policy](self.table, self.rng)
        host = ni_id // fcfg.nis_per_host
        # golden-ratio phase spreading: hosts desynchronize evenly
        self.phase = (host * 0.6180339887498949) % 1.0
        self.remap_q: list[int] = []
        hot_size = max(1, min(n, round(n * fcfg.hot_fraction)))
        self.hot = [self.rng.randrange(n) for _ in range(hot_size)]
        self.credit = 0.0
        self.credit_per_tick = fcfg.remaps_per_s * fcfg.tick_us / 1e6
        self.tick_ns = int(fcfg.tick_us * 1000)
        self.bounce_ns = int(fcfg.bounce_us * 1000)
        self.goodput = 0
        self.deferred = 0
        self.remaps = 0
        self.evictions = 0
        self.bounces = 0

    def tick(self, tick_idx: int, arrivals: int, churn: int) -> int:
        """One macro tick; returns messages served this tick."""
        t = self.table
        res, flags, ring = t.res, t.flags, t.ring_used
        la, evicted = t.last_active, t.evicted_at
        now = tick_idx * self.tick_ns
        rng = self.rng
        hot = self.hot
        served = 0

        # -- message arrivals against the hot set --------------------
        for _ in range(arrivals):
            r = hot[rng.randrange(len(hot))]
            la[r] = now
            if res[r] == RES_ONNIC_RW:
                served += 1
                flags[r] |= F_REFERENCED
            else:
                self.deferred += 1
                ring[r] += 1  # backlog waiting for residency
                if evicted[r] >= 0:
                    if now - evicted[r] <= self.bounce_ns:
                        self.bounces += 1
                    evicted[r] = -1
                if not flags[r] & F_MR_REQUESTED:
                    flags[r] |= F_MR_REQUESTED
                    self.remap_q.append(r)

        # -- hot-set churn: the working set drifts under the policies -
        n = len(res)
        for _ in range(churn):
            hot[rng.randrange(len(hot))] = rng.randrange(n)

        # -- serial remap engine (rate-limited, §6.4.1) ---------------
        self.credit += self.credit_per_tick
        q = self.remap_q
        frame_rows = t.frame_rows
        while self.credit >= 1.0 and q:
            self.credit -= 1.0
            r = q.pop(0)
            flags[r] &= ~F_MR_REQUESTED
            if res[r] == RES_ONNIC_RW:
                continue
            frame = -1
            for f, occ in enumerate(frame_rows):
                if occ < 0:
                    frame = f
                    break
            if frame < 0:
                candidates = [occ for occ in frame_rows if occ >= 0]
                victim = self.policy.choose_row(candidates)
                frame = t.frame[victim]
                frame_rows[frame] = -1
                t.frame[victim] = -1
                res[victim] = RES_ONHOST_RO
                evicted[victim] = now
                self.evictions += 1
                # a victim unloaded with backlog faults straight back in
                if ring[victim] and not flags[victim] & F_MR_REQUESTED:
                    flags[victim] |= F_MR_REQUESTED
                    q.append(victim)
            frame_rows[frame] = r
            t.frame[r] = frame
            res[r] = RES_ONNIC_RW
            flags[r] |= F_REFERENCED
            self.remaps += 1
            # the backlog drains as soon as residency lands
            served += ring[r]
            ring[r] = 0

        self.goodput += served
        return served


def run_fleet_cell(fcfg: FleetCellConfig, *,
                   measure_memory: bool = False) -> FleetCellResult:
    """Run one fleet cell; returns its :class:`FleetCellResult`.

    ``measure_memory=True`` wraps the build + run in tracemalloc and
    records the peak (slower; used by the budget gate, not the sweep).
    """
    try:
        model = ARRIVAL_MODELS[fcfg.arrival]()
    except KeyError:
        raise ValueError(
            f"unknown arrival model {fcfg.arrival!r}; "
            f"registered: {sorted(ARRIVAL_MODELS)}"
        ) from None
    if fcfg.policy not in REPLACEMENT_POLICIES:
        raise ValueError(
            f"unknown replacement policy {fcfg.policy!r}; "
            f"registered: {sorted(REPLACEMENT_POLICIES)}"
        )
    wall0 = time.perf_counter()
    if measure_memory:
        tracemalloc.start()
    nis = [_NiSim(fcfg, ni_id) for ni_id in range(fcfg.n_nis)]

    peak_msgs = fcfg.msgs_per_ni_tick
    churn = max(1, round(len(nis[0].hot) * fcfg.churn_fraction))
    warmup = fcfg.warmup_ticks if fcfg.warmup_ticks is not None \
        else fcfg.ticks // 4
    tick_goodput_min = None
    backlog_peak = 0
    for tick_idx in range(fcfg.ticks):
        tick_served = 0
        backlog = 0
        for ni in nis:
            arrivals = int(peak_msgs * model.intensity(tick_idx, ni.phase))
            tick_served += ni.tick(tick_idx, arrivals, churn)
            backlog += len(ni.remap_q)
        if tick_idx >= warmup and (
                tick_goodput_min is None or tick_served < tick_goodput_min):
            tick_goodput_min = tick_served
        if backlog > backlog_peak:
            backlog_peak = backlog

    if measure_memory:
        _, mem_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    else:
        mem_peak = 0

    res = FleetCellResult(
        policy=fcfg.policy,
        hosts=fcfg.hosts,
        nis_per_host=fcfg.nis_per_host,
        frames=fcfg.endpoint_frames,
        ratio=fcfg.ratio,
        arrival=fcfg.arrival,
        total_endpoints=fcfg.total_endpoints,
        seed=fcfg.seed,
    )
    res.completed = sum(ni.goodput for ni in nis)
    res.deferred = sum(ni.deferred for ni in nis)
    res.remaps = sum(ni.remaps for ni in nis)
    res.evictions = sum(ni.evictions for ni in nis)
    res.bounced_evictions = sum(ni.bounces for ni in nis)
    res.thrash_score = res.bounced_evictions / max(1, res.remaps)
    res.tick_goodput_min = tick_goodput_min or 0
    res.remap_backlog_peak = backlog_peak
    elapsed_s = fcfg.ticks * fcfg.tick_us / 1e6
    res.goodput_msgs_s = res.completed / elapsed_s
    res.table_bytes = sum(ni.table.nbytes() for ni in nis)
    res.bytes_per_endpoint = res.table_bytes / max(1, fcfg.total_endpoints)
    res.tracemalloc_peak_bytes = mem_peak
    res.digest = digest(
        ("fleet", *fcfg.key()),
        ("per_ni", [(ni.goodput, ni.deferred, ni.remaps, ni.evictions,
                     ni.bounces) for ni in nis]),
        ("floor", res.tick_goodput_min, backlog_peak),
    )
    res.wall_s = time.perf_counter() - wall0
    return res


def run_memcheck(*, policy: str = "lru", arrival: str = "diurnal",
                 ticks: int = 24, seed: int = 1999) -> FleetCellResult:
    """The 10^5-endpoint acceptance cell, run under tracemalloc."""
    return run_fleet_cell(
        FleetCellConfig(policy=policy, arrival=arrival, ticks=ticks,
                        seed=seed, **MEMCHECK_CELL),
        measure_memory=True)


# ------------------------------------------------------------------ suite
def _run(fcfg: Optional[FleetCellConfig], arrival: str, seed: int) -> dict:
    res = (run_fleet_cell(fcfg) if fcfg is not None
           else run_memcheck(arrival=arrival, seed=seed))
    obs = res.to_dict()
    measured = {"wall_s": obs.pop("wall_s"),
                "tracemalloc_peak_bytes": obs.pop("tracemalloc_peak_bytes")}
    return {"observables": obs, "measured": measured}


def _cells(policies: Sequence[str] = DEFAULT_FLEET_POLICIES,
           ratios: Sequence[int] = DEFAULT_FLEET_RATIOS,
           hosts_list: Sequence[int] = (64,), nis_per_host: int = 2,
           frames: int = 8, arrival: str = "diurnal", ticks: int = 192,
           seed: int = 1999, memcheck: bool = True):
    """The (hosts × policy × ratio) grid plus the memcheck cell.  The
    macro-model runs the residency components directly, not the event
    kernel."""
    cells = []
    for hosts in hosts_list:
        for policy in policies:
            for ratio in ratios:
                fcfg = FleetCellConfig(
                    policy=policy, hosts=hosts, nis_per_host=nis_per_host,
                    endpoint_frames=frames, ratio=ratio, arrival=arrival,
                    ticks=ticks, seed=seed)
                cells.append((f"{policy}@{hosts}h/{ratio}:1",
                              lambda fcfg=fcfg: _run(fcfg, arrival, seed)))
    if memcheck:
        cells.append(("memcheck", lambda: _run(None, arrival, seed)))
    return cells


def _memory_budget(cells: dict) -> list[str]:
    cell = cells.get("memcheck")
    if cell is None:
        return []
    peak_mb = cell["measured"]["tracemalloc_peak_bytes"] / 1e6
    if peak_mb <= MEMCHECK_BUDGET_MB:
        return []
    return [f"memcheck: {cell['observables']['total_endpoints']} endpoints "
            f"peaked at {peak_mb:.1f} MB (budget {MEMCHECK_BUDGET_MB:.0f} MB)"]


FLEET = register(Suite(
    "fleet", _cells,
    smoke={"hosts_list": (8,), "nis_per_host": 1, "frames": 4,
           "ratios": (4, 16), "ticks": 96},
    gates=(zero_goodput, _memory_budget)))
