"""Collective-strategy benchmark: host vs firmware trees.

One cell per (cluster size, strategy): a full ``lib.mpi`` world runs
Barrier, Bcast (1 KiB from rank 0) and Reduce (integer sum) once each
after a warm-up barrier, on an otherwise idle fabric.  The figure of
merit is the **simulated makespan** of each operation — latest rank
completion minus earliest rank start — which is machine-independent, so
the strategy comparison is gateable in CI:

* ``host``     — the dissemination/binomial message patterns over AM;
* ``firmware`` — NI-forwarded k-ary spanning trees (one descriptor per
  host, all interior steps in LANai firmware).

The committed gate: at 128 nodes the firmware tree must beat the host
tree by ``FIRMWARE_GATE``x on every operation.  Results land in
``BENCH_COLLECTIVES.json``::

    PYTHONPATH=src python -m repro bench collectives --smoke
    PYTHONPATH=src python -c "from repro.api import run_bench; \
        run_bench('collectives', sizes=(32, 128))"
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..cluster.config import ClusterConfig
from .harness import Suite, digest, register

__all__ = ["FIRMWARE_GATE", "STRATEGIES", "run_cell"]

STRATEGIES = ("host", "firmware")
OPS = ("barrier", "bcast", "reduce")
SIZES = (32, 128, 512)
SMOKE_SIZES = (8, 16)
#: required host/firmware makespan ratio at the gate size, every op
#: (measured 1.46x-1.74x on the barrier, >= 4.2x on bcast/reduce, 8-512 nodes)
FIRMWARE_GATE = 1.25
GATE_SIZE = 128
BCAST_BYTES = 1024


def run_cell(size: int, strategy: str,
             cfg: Optional[ClusterConfig] = None) -> dict:
    """One (size, strategy) cell: op makespans, semantics and a digest
    over every rank's (op, start, end, result) record."""
    from ..cluster.builder import Cluster
    from ..lib.mpi import build_world

    cfg = (cfg or ClusterConfig()).with_(
        num_hosts=size, collective_strategy=strategy)
    spans: dict[int, list] = {}
    t0 = time.perf_counter()
    with Cluster(cfg) as cl:
        world = cl.run_process(build_world(cl, list(range(size))), "coll")

        def main_body(thr, comm):
            out = []
            yield from comm.barrier(thr)  # align ranks before measuring
            for op in OPS:
                start = cl.sim.now
                if op == "barrier":
                    result = yield from comm.barrier(thr)
                elif op == "bcast":
                    result = yield from comm.bcast(
                        thr, 0, BCAST_BYTES,
                        payload=("blob", size) if comm.rank == 0 else None)
                else:
                    result = yield from comm.reduce(
                        thr, 0, comm.rank + 1, "sum", 8)
                out.append((op, start, cl.sim.now, result))
            spans[comm.rank] = out

        world.spawn(main_body)
        cl.run()
        events = cl.sim.events_dispatched
        sim_ns = cl.sim.now
    wall = time.perf_counter() - t0

    latency = {}
    for i, op in enumerate(OPS):
        starts = [spans[r][i][1] for r in range(size)]
        ends = [spans[r][i][2] for r in range(size)]
        latency[op] = max(ends) - min(starts)

    # Semantic conformance folded into every bench run: the broadcast
    # payload lands on every rank, the reduce sum lands only at root.
    ok = all(spans[r][1][3] == ("blob", size) for r in range(size))
    total = size * (size + 1) // 2
    ok = ok and spans[0][2][3] == total
    ok = ok and all(spans[r][2][3] is None for r in range(1, size))

    return {
        "observables": {
            "latency_ns": latency,
            "semantics_ok": ok,
            "events": events,
            "sim_ns": sim_ns,
            "digest": digest(*((r, spans[r]) for r in range(size))),
        },
        "measured": {
            "wall_s": round(wall, 4),
            "events_per_sec": round(events / wall) if wall > 0 else 0,
        },
    }


def _cells(sizes: Sequence[int] = SIZES,
           strategies: Sequence[str] = STRATEGIES):
    return [(f"{strategy}@{size}",
             lambda size=size, strategy=strategy: run_cell(size, strategy))
            for size in sizes for strategy in strategies]


def _semantics(cells: dict) -> list[str]:
    return [f"{key}: a collective returned wrong results"
            for key, c in cells.items()
            if not c["observables"]["semantics_ok"]]


def _firmware_vs_host(cells: dict) -> list[str]:
    """Firmware must beat host by FIRMWARE_GATE on every op at the gate
    size (the largest size run when 128 is not in the matrix)."""
    sizes = {int(k.split("@")[1]) for k in cells}
    if not sizes:
        return []
    gate = GATE_SIZE if GATE_SIZE in sizes else max(sizes)
    host = cells.get(f"host@{gate}")
    firmware = cells.get(f"firmware@{gate}")
    if host is None or firmware is None:
        return []
    failures = []
    for op in OPS:
        ratio = (host["observables"]["latency_ns"][op]
                 / firmware["observables"]["latency_ns"][op])
        if ratio < FIRMWARE_GATE:
            failures.append(f"firmware@{gate} {op}: {ratio:.2f}x host, "
                            f"need >= {FIRMWARE_GATE}x")
    return failures


COLLECTIVES = register(Suite(
    "collectives", _cells, smoke={"sizes": SMOKE_SIZES},
    gates=(_semantics, _firmware_vs_host)))
