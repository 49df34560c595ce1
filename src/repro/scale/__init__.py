"""``repro.scale`` — endpoint-overcommit load generator and sweep harness.

The paper's central scaling claim (Section 6.4) is that a virtual
network stays serviceable when applications overcommit the NI's eight
endpoint frames by well past 8:1 — the re-mapping machinery degrades
goodput gracefully instead of collapsing.  This package regenerates that
relationship:

* :mod:`repro.scale.loadgen` — a batched closed-loop load generator:
  ``ratio × endpoint_frames`` client endpoints (spread over a fixed pool
  of client nodes, hundreds of client threads at the high ratios) each
  stream request bursts at a dedicated server endpoint, client/server
  style (:mod:`repro.apps.clientserver`), so the server NI is the only
  node under residency pressure;
* :mod:`repro.scale.sweep` — the ``scale`` bench suite, the (policy ×
  overcommit-ratio) sweep: goodput, p50/p99 request latency, remap rate
  and the residency scoreboard's thrash score per cell
  (``BENCH_SCALE.json``);
* :mod:`repro.scale.fleet` — the ``fleet`` suite, a fleet-scale
  macro-model: hundreds of hosts × several server NIs × 10^5–10^6
  endpoints on struct-of-arrays endpoint tables, driven by
  diurnal/bursty arrival models against the *production* replacement
  policies, with a tracemalloc peak-memory budget gate
  (``BENCH_FLEET.json``).

Run through the harness::

    PYTHONPATH=src python -m repro bench scale --smoke
    PYTHONPATH=src python -m repro bench fleet --smoke

Every run is deterministic: the same ``(policy, ratio, seed)`` cell
produces a bit-identical result digest (and, with tracing on, a
bit-identical timeline digest) on every run.
"""

from .fleet import (
    DEFAULT_FLEET_POLICIES,
    DEFAULT_FLEET_RATIOS,
    FleetCellConfig,
    FleetCellResult,
    run_fleet_cell,
    run_memcheck,
)
from .loadgen import ARRIVAL_MODELS, ArrivalModel, ScaleCellConfig, ScaleCellResult, run_cell
from .sweep import DEFAULT_POLICIES, DEFAULT_RATIOS

__all__ = [
    "ARRIVAL_MODELS",
    "ArrivalModel",
    "DEFAULT_FLEET_POLICIES",
    "DEFAULT_FLEET_RATIOS",
    "DEFAULT_POLICIES",
    "DEFAULT_RATIOS",
    "FleetCellConfig",
    "FleetCellResult",
    "ScaleCellConfig",
    "ScaleCellResult",
    "run_cell",
    "run_fleet_cell",
    "run_memcheck",
]
