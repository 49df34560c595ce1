"""Chaos matrix + availability benchmark.

Executes a seed × scenario × workload matrix of deterministic chaos runs,
audits every run against the delivery contract, and reports the
availability picture the paper's robustness story implies (Section 3.2 /
5.1): how much goodput survives *during* a crash outage, and how quickly
traffic involving a rebooted node resumes.  Every generated scenario
family is joined by a fault-free ``calm`` cell per seed and workload, the
healthy-path baseline.

Each cell runs through :func:`repro.chaos.run_modes`: once on every
(kernel, express path, spin elision) mode.  A mode that disagrees with
another adds an ``M.mode`` violation, so the delivery-contract gate is
also the one mode-equivalence oracle.  The observables are the default
mode's (the sequential kernel with the express path and spin elision
on).

Run through the harness::

    PYTHONPATH=src python -m repro bench chaos --smoke
    PYTHONPATH=src python -c "from repro.api import run_bench; \\
        run_bench('chaos', seeds=(1, 2, 3), profile='brutal')"

Any run that violates an invariant fails the suite, and its full
timeline is exported under ``trace_dir`` (default ``chaos-traces/``) as
Chrome ``trace_event`` JSON (load in ``chrome://tracing`` or Perfetto)
so the failure can be inspected event by event — and, runs being
bit-deterministic, replayed exactly.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from ..chaos import (SCENARIO_FAMILIES, ScheduleGenerator, calm_scenario,
                     run_modes)
from .harness import Suite, register

__all__ = ["CHAOS"]

_WORKLOADS = ("pairwise", "bulk", "client_server", "collective", "incast",
              "rpc_fanout", "streaming")


def _run(scenario, workload: str, num_hosts: int,
         trace_dir: Optional[str]) -> dict:
    trace_path = trace_dir and os.path.join(
        trace_dir, f"chaos-{scenario.name}-{workload}-s{scenario.seed}-"
        f"{scenario.profile}.json")
    r = run_modes(scenario, workload, num_hosts=num_hosts,
                  trace_path=trace_path)
    return {"observables": {
        "digest": r.digest, "sim_ns": r.sim_ns, "events": r.events,
        "accepted": r.accepted, "delivered": r.delivered,
        "returned": r.returned, "duplicates": r.duplicates,
        "faults_injected": r.faults_injected,
        "goodput_clear_msg_s": r.goodput_clear_msg_s,
        "goodput_outage_msg_s": r.goodput_outage_msg_s,
        "recovery_ns": r.recovery_ns,
        "violations": [str(v) for v in r.violations],
    }}


def _cells(seeds: Sequence[int] = (1, 2, 3, 4, 5),
           scenarios: Sequence[str] = SCENARIO_FAMILIES,
           workloads: Sequence[str] = _WORKLOADS, profile: str = "rough",
           num_hosts: int = 8, duration_ns: int = 20_000_000,
           trace_dir: Optional[str] = "chaos-traces"):
    cells = []
    for seed in seeds:
        gen = ScheduleGenerator(seed, num_hosts=num_hosts,
                                num_spines=max(1, num_hosts // 4),
                                num_procs=4, num_eps=4,
                                duration_ns=duration_ns, profile=profile)
        for scenario in [*map(gen.generate, scenarios),
                         calm_scenario(seed, duration_ns)]:
            for wl in workloads:
                cells.append((f"{scenario.name}/{wl}/s{seed}",
                              lambda s=scenario, wl=wl: _run(
                                  s, wl, num_hosts, trace_dir)))
    return cells


def _delivery_contract(cells: dict) -> list[str]:
    return [f"{key}: {v}" for key, c in cells.items()
            for v in c["observables"]["violations"][:8]]


CHAOS = register(Suite(
    "chaos", _cells,
    smoke={"seeds": (1, 2),
           "scenarios": ("loss_ramp", "crash_storm", "kill_storm", "mixed",
                         "collective_storm")},
    gates=(_delivery_contract,)))
