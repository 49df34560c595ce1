"""Cross-shard link handoff: the trunk at a fabric boundary.

The sharded kernel (:mod:`repro.sim.sharded`) partitions the cluster
into contiguous host ranges, each owning a private :class:`Network`
fabric.  Packets addressed outside a shard's range never enter the
local fabric: :meth:`Network.send` consults the installed
:class:`ShardBoundary` *before* any stats update or RNG draw and hands
the packet off as a :class:`TrunkRecord` — a picklable, canonically
ordered description of a store-and-forward crossing of the inter-shard
trunk (think: the spine links between racks, modeled at rack
granularity instead of per-switch).

Determinism hinges on two properties enforced here:

* **Timing is engine-invariant.**  A record emitted at ``t`` arrives at
  ``t + trunk_base_ns + wire_ns(payload + header)`` regardless of which
  executor runs the shards; the trunk base latency is also the
  conservative lookahead (no shard can affect another sooner), and
  :meth:`ClusterConfig.validate` pins it above the fat-tree's own
  minimum cross-shard latency.

* **Ordering is canonical.**  Every record carries its source shard and
  a per-source monotonically increasing sequence number; the receiving
  :class:`~repro.sim.sharded.TrunkIngress` delivers strictly in
  ``(arrive, src_shard, seq)`` order and serializes same-host arrivals
  onto distinct ticks, so the destination shard observes one total
  order no matter how records were batched in transit.

Express-path interaction: a cached route can never span shards (routes
are computed on the local fabric), but the *attempt* would — so the
boundary check precedes the express attempt in :meth:`Network.send` and the
demotion is counted in ``ExpressStats.boundary_demotions``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Tuple

from ..cluster.config import ClusterConfig
from .packet import Packet

__all__ = ["BoundaryStats", "ShardBoundary", "TrunkRecord", "trunk_record"]

#: (arrive_ns, src_shard, seq, src_global, dst_global, msg_id, nbytes, kind)
#: — a plain tuple so it pickles cheaply for batched ``multiprocessing``
#: handoff and sorts by exactly the canonical delivery key.
TrunkRecord = Tuple[int, int, int, int, int, int, int, int]


def trunk_record(arrive: int, src_shard: int, seq: int, src_g: int,
                 dst_g: int, msg_id: int, nbytes: int, kind: int) -> TrunkRecord:
    return (arrive, src_shard, seq, src_g, dst_g, msg_id, nbytes, kind)


@dataclass
class BoundaryStats:
    """Per-shard egress accounting (mode-invariant, digested)."""

    handoffs: int = 0
    bytes_handed_off: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ShardBoundary:
    """One shard's view of the global id space plus its trunk egress.

    ``base .. base+size-1`` are the global NIC ids this shard owns; the
    local fabric indexes them as ``0 .. size-1``.  ``emit`` receives
    each outbound :data:`TrunkRecord` — the sequential engine routes it
    straight into the destination ingress, the windowed engines append
    it to the shard's outbox for the next barrier.
    """

    __slots__ = ("shard_id", "base", "size", "cfg", "stats",
                 "trunk_base_ns", "_emit", "_seq")

    def __init__(self, shard_id: int, base: int, size: int,
                 cfg: ClusterConfig, emit: Callable[[TrunkRecord], None]):
        self.shard_id = shard_id
        self.base = base
        self.size = size
        self.cfg = cfg
        self.stats = BoundaryStats()
        self.trunk_base_ns = cfg.shard_trunk_base_ns
        self._emit = emit
        self._seq = 0

    # ---------------------------------------------------------- id space
    def is_local(self, global_nic: int) -> bool:
        return self.base <= global_nic < self.base + self.size

    def to_local(self, global_nic: int) -> int:
        return global_nic - self.base

    def to_global(self, local_nic: int) -> int:
        return local_nic + self.base

    # ------------------------------------------------------------- trunk
    def arrival_ns(self, now: int, nbytes: int) -> int:
        """Store-and-forward crossing: base latency + serialization of
        the full frame onto the trunk."""
        return now + self.trunk_base_ns + self.cfg.wire_ns(
            nbytes + self.cfg.packet_header_bytes)

    def ingress_gap_ns(self, nbytes: int) -> int:
        """Minimum spacing between two trunk deliveries into the *same*
        destination host: the frame's wire time off the trunk plus the
        NI receive budget.  Always >= 1 ns, which is what guarantees
        same-host arrivals land on distinct ticks."""
        return max(1, self.cfg.wire_ns(nbytes + self.cfg.packet_header_bytes)
                   + self.cfg.lanai_ns(self.cfg.ni_recv_instr))

    def handoff(self, pkt: Packet, now: int) -> None:
        """Convert an outbound packet into a trunk record and emit it.

        Called by :meth:`Network.send` before any fabric-local state is
        touched, so the local fabric's stats and RNG streams never see
        cross-shard traffic — the load-bearing fact in the determinism
        argument (DESIGN.md §13).
        """
        nbytes = pkt.payload_bytes
        rec = trunk_record(
            self.arrival_ns(now, nbytes), self.shard_id, self._seq,
            pkt.src_nic, pkt.dst_nic, pkt.msg_id, nbytes, pkt.channel,
        )
        self._seq += 1
        self.stats.handoffs += 1
        self.stats.bytes_handed_off += nbytes
        self._emit(rec)
