"""Link-level packets.

Every packet carries the fields Section 5.1 describes: a source route, a
packet type, the logical flow-control channel id, a sequence bit, the
sender's channel epoch (for self-resynchronization after reboots), and
the destination endpoint id plus protection key.  The 32-bit timestamp
the real header also carries is counted in its size
(``ClusterConfig.packet_header_bytes``) but not modelled: the static
retransmission timer never reads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

__all__ = ["PacketType", "NackReason", "Packet", "pool_stats",
           "reset_pool_stats"]

_packet_ids = itertools.count(1)

#: recycled Packet shells (see Packet.alloc/recycle); bounded so a burst
#: can't pin memory forever
_pool: list["Packet"] = []
_POOL_MAX = 512

#: allocation accounting: hits (shell reused), misses (fresh construction
#: through alloc), recycled (shells returned).  Observability only — the
#: regression test pins a steady-state protocol burst at zero misses.
_pool_stats = {"hits": 0, "misses": 0, "recycled": 0}


def pool_stats() -> dict:
    """A snapshot of the shell pool's hit/miss/recycle counters."""
    return dict(_pool_stats)


def reset_pool_stats() -> None:
    for k in _pool_stats:
        _pool_stats[k] = 0


class PacketType(Enum):
    DATA = "data"
    ACK = "ack"
    NACK = "nack"
    SYNC = "sync"  # channel re-initialization handshake
    COLL = "coll"  # firmware collective (barrier/broadcast/reduce) step


class NackReason(Enum):
    #: destination endpoint not bound to an NI frame; triggers a driver
    #: make-resident request at the receiver and a later retransmission
    NOT_RESIDENT = "not_resident"
    #: destination receive queue full (Figure 6's 3-client drop)
    RECV_OVERRUN = "recv_overrun"
    #: protection key mismatch -> message is returned to its sender
    BAD_KEY = "bad_key"
    #: no such endpoint -> returned to sender
    NO_ENDPOINT = "no_endpoint"
    #: receiver channel state out of sync (peer rebooted)
    OUT_OF_SYNC = "out_of_sync"


@dataclass
class Packet:
    """One Myrinet packet (data or protocol)."""

    src_nic: int
    dst_nic: int
    kind: PacketType
    #: logical flow-control channel index within the (src, dst) pair
    channel: int = 0
    #: stop-and-wait alternating sequence bit
    seq: int = 0
    #: sender channel epoch for self-synchronization (Section 5.1)
    epoch: int = 0
    #: payload length in bytes (data packets)
    payload_bytes: int = 0
    #: destination endpoint id on the receiving node (data packets)
    dst_endpoint: int = -1
    #: source endpoint id (so replies and returns can be routed back)
    src_endpoint: int = -1
    #: True when the message is an AM reply (separate receive queue)
    is_reply: bool = False
    #: True when the payload moves via SBus DMA to a host memory region
    is_bulk: bool = False
    #: protection key stamped by the sending NI (Section 3.1)
    key: int = 0
    #: globally unique id of the *message* this packet carries; constant
    #: across retransmissions so receivers can suppress duplicates
    msg_id: int = 0
    #: NACK reason (nack packets)
    nack_reason: Optional[NackReason] = None
    #: opaque upper-layer message payload (descriptor, handler args, ...)
    body: Any = None
    #: set by fault injection when the packet was corrupted in flight
    corrupted: bool = False
    #: unique per-transmission id (differs across retransmissions)
    xmit_id: int = field(default_factory=lambda: next(_packet_ids))

    def wire_bytes(self, header_bytes: int) -> int:
        """Total bytes this packet occupies on a link."""
        return header_bytes + max(0, self.payload_bytes)

    # ---------------------------------------------------------- pooling
    @classmethod
    def alloc(cls, src_nic: int, dst_nic: int, kind: "PacketType", **kw) -> "Packet":
        """A packet from the free list, observationally fresh.

        Every field is reset to its dataclass default and ``xmit_id`` is
        drawn from the same counter the constructor uses, so a recycled
        packet is indistinguishable from a newly constructed one —
        pooling is purely an allocation-rate optimization.  Callers that
        recycle must guarantee the receiver does not retain the object
        (the ACK/NACK protocol paths in :mod:`repro.nic.firmware` do).
        """
        if _pool:
            _pool_stats["hits"] += 1
            p = _pool.pop()
            p.src_nic = src_nic
            p.dst_nic = dst_nic
            p.kind = kind
            p.channel = 0
            p.seq = 0
            p.epoch = 0
            p.payload_bytes = 0
            p.dst_endpoint = -1
            p.src_endpoint = -1
            p.is_reply = False
            p.is_bulk = False
            p.key = 0
            p.msg_id = 0
            p.nack_reason = None
            p.body = None
            p.corrupted = False
            p.xmit_id = next(_packet_ids)
            for k, v in kw.items():
                setattr(p, k, v)
            return p
        _pool_stats["misses"] += 1
        return cls(src_nic, dst_nic, kind, **kw)

    def recycle(self) -> None:
        """Return a dead packet to the free list (owner's responsibility)."""
        if len(_pool) < _POOL_MAX:
            _pool_stats["recycled"] += 1
            _pool.append(self)

    def __repr__(self) -> str:  # compact for traces
        extra = f" nack={self.nack_reason.value}" if self.nack_reason else ""
        return (
            f"<Pkt {self.kind.value} {self.src_nic}->{self.dst_nic}"
            f" ch{self.channel} seq{self.seq} ep{self.dst_endpoint}"
            f" {self.payload_bytes}B msg{self.msg_id}{extra}>"
        )
