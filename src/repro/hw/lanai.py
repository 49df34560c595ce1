"""LANai embedded-processor cost accounting.

The LANai 4.3 runs firmware on a 37.5 MHz general-purpose core; every
firmware action is charged an instruction budget from
:class:`~repro.cluster.config.ClusterConfig`.  :class:`LanaiMeter`
accumulates where the cycles went, which the benchmark harnesses use to
attribute gap/latency costs the way Section 6.1 does (e.g. the ~1.1 us of
defensive error checking).
"""

from __future__ import annotations

from collections import Counter

from ..cluster.config import ClusterConfig

__all__ = ["LanaiMeter"]


class LanaiMeter:
    """Per-NIC account of LANai instruction time by category."""

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self.ns_by_op: Counter[str] = Counter()
        self.count_by_op: Counter[str] = Counter()
        #: ns per instruction count: the firmware charges a handful of
        #: fixed budgets, so each is converted once
        self._ns: dict[int, int] = {}

    def cost_ns(self, op: str, instructions: int) -> int:
        """Charge ``instructions`` to category ``op``; returns the ns cost."""
        ns = self._ns.get(instructions)
        if ns is None:
            ns = self._ns[instructions] = self.cfg.lanai_ns(instructions)
        self.ns_by_op[op] += ns
        self.count_by_op[op] += 1
        return ns

    @property
    def total_ns(self) -> int:
        return sum(self.ns_by_op.values())

    def mean_ns(self, op: str) -> float:
        n = self.count_by_op.get(op, 0)
        return self.ns_by_op.get(op, 0) / n if n else 0.0

    def snapshot(self) -> dict[str, int]:
        return dict(self.ns_by_op)
