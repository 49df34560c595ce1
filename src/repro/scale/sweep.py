"""The (replacement policy × overcommit ratio) sweep suite.

Regenerates the Section 6.4 scaling relationship: goodput per cell as
the server NI's eight endpoint frames are overcommitted 1:1 → 64:1,
for every registered replacement policy.  The paper's claim — and this
suite's acceptance bar — is *graceful* degradation: past 8:1 goodput
falls, but no policy collapses to zero while the re-mapping machinery
(200-300 remaps/s) migrates endpoints under the load.

Run through the harness::

    PYTHONPATH=src python -m repro bench scale --smoke   # CI gate
    PYTHONPATH=src python -m repro bench scale           # -> BENCH_SCALE.json
    PYTHONPATH=src python -c "from repro.api import run_bench; \\
        run_bench('scale', policies=('random', 'lru'), ratios=(1, 8, 32))"

``--smoke`` runs a reduced matrix with every cell executed twice (the
determinism gate); any cell with zero goodput fails the suite (the
graceful-degradation gate).
"""

from __future__ import annotations

from typing import Sequence

from ..bench.harness import Suite, register
from .loadgen import ScaleCellConfig, run_cell

__all__ = ["DEFAULT_POLICIES", "DEFAULT_RATIOS", "SCALE"]

DEFAULT_POLICIES = ("random", "lru", "clock", "active-preference")
DEFAULT_RATIOS = (1, 2, 4, 8, 16, 32, 64)


def _run(ccfg: ScaleCellConfig) -> dict:
    obs = run_cell(ccfg).to_dict()
    return {"observables": obs, "measured": {"wall_s": obs.pop("wall_s")}}


def _cells(policies: Sequence[str] = DEFAULT_POLICIES,
           ratios: Sequence[int] = DEFAULT_RATIOS, frames: int = 8,
           duration_ms: float = 60.0, warmup_ms: float = 30.0,
           seed: int = 1999, client_nodes: int = 8):
    cells = []
    for policy in policies:
        for ratio in ratios:
            ccfg = ScaleCellConfig(
                policy=policy, ratio=ratio, endpoint_frames=frames,
                client_nodes=client_nodes, duration_ms=duration_ms,
                warmup_ms=warmup_ms, seed=seed)
            cells.append((f"{policy}@{ratio}:1",
                          lambda ccfg=ccfg: _run(ccfg)))
    return cells


def zero_goodput(cells: dict) -> list[str]:
    """Graceful degradation: every cell must complete some work."""
    return [f"{key}: zero goodput" for key, c in cells.items()
            if c["observables"]["completed"] == 0]


SCALE = register(Suite(
    "scale", _cells,
    smoke={"frames": 2, "ratios": (2, 8, 16), "duration_ms": 25.0,
           "warmup_ms": 15.0, "client_nodes": 4},
    gates=(zero_goodput,)))
