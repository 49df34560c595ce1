"""Logical flow-control channels (Section 5.1).

Between every pair of interfaces the transport layer maintains a small set
of stop-and-wait channels with positive acknowledgment.  Each channel
carries at most one unacknowledged packet; multiple channels mask
transmission and acknowledgment latencies and exploit multipath routing
(the channel index selects the spine in :mod:`repro.myrinet.topology`).
A NI creates a peer's channels as it needs them: the first time no
existing channel to that peer is idle, it adds the next index, up to
``channels_per_pair``.  Since the first idle channel is always the one
used, this picks exactly the index a full set would, so routes are the
same while a light peer costs one channel instead of all of them.

Because channels are shared physical resources, no message may occupy one
indefinitely: after ``max_consecutive_retrans`` consecutive retransmissions
the message is *unbound*, freeing the channel; later retransmissions
reacquire and rebind (Section 5.1).  Retransmission timing uses randomized
exponential backoff.

Channels are self-synchronizing: each end stamps packets with its epoch,
and a receiver seeing a new epoch (peer rebooted) adopts it and resets its
duplicate-suppression window.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from typing import Optional

from ..cluster.config import ClusterConfig
from .message import Message

__all__ = ["TxChannel", "RxPeerState", "backoff_ns"]


def backoff_ns(cfg: ClusterConfig, consecutive: int, rng: random.Random) -> int:
    """Randomized exponential backoff for the next retransmission."""
    base_us = cfg.retrans_timeout_us * (2 ** min(consecutive, 10))
    capped_us = min(base_us, max(cfg.retrans_backoff_max_us, cfg.retrans_timeout_us))
    jittered = capped_us * (1.0 + rng.random())  # 1x .. 2x (never early)
    return max(1_000, round(jittered * 1_000))


class TxChannel:
    """Sender-side state of one stop-and-wait channel."""

    __slots__ = (
        "peer",
        "index",
        "seq",
        "epoch",
        "outstanding",
        "deadline_ns",
        "timer_gen",
    )

    def __init__(self, peer: int, index: int, epoch: int = 0):
        self.peer = peer
        self.index = index
        #: alternating sequence bit
        self.seq = 0
        #: bumped when the owning NI reboots (uninitialized state, §5.1)
        self.epoch = epoch
        #: the one message awaiting acknowledgment, if any
        self.outstanding: Optional[Message] = None
        #: absolute retransmission deadline for the outstanding packet
        self.deadline_ns: Optional[int] = None
        #: invalidates stale timer-heap entries
        self.timer_gen = 0

    @property
    def idle(self) -> bool:
        return self.outstanding is None

    def arm(self, now_ns: int, timeout_ns: int) -> int:
        """Arm the retransmission timer; returns the deadline."""
        self.timer_gen += 1
        self.deadline_ns = now_ns + timeout_ns
        return self.deadline_ns

    def disarm(self) -> None:
        self.timer_gen += 1
        self.deadline_ns = None

    def reset(self, epoch: int) -> list[Message]:
        """Reboot: drop all state, return the orphaned message (if any)."""
        orphans = [] if self.outstanding is None else [self.outstanding]
        self.outstanding = None
        self.seq = 0
        self.epoch = epoch
        self.disarm()
        return orphans

    def __repr__(self) -> str:
        return (
            f"<TxCh ->{self.peer}#{self.index} seq{self.seq}"
            f" out={self.outstanding is not None}>"
        )


class RxPeerState:
    """Receiver-side per-peer state: epoch tracking + duplicate suppression.

    Stop-and-wait sequencing alone cannot suppress duplicates across
    channel unbind/rebind, so (like the paper's copy accounting, §5.3) the
    receiver remembers recently delivered message ids per peer and re-ACKs
    duplicates without redelivering — this is what makes delivery exactly
    once (Section 3.2).

    The window is the last ``window`` distinct ids in delivery order, held
    in two packed ``array('q')`` (8 B per id each): a FIFO ring that says
    which id to forget next, and the same ids sorted for a bisect lookup.
    Recording an id already remembered changes nothing and evicts nothing,
    and a full window forgets its oldest delivery first — the semantics of
    an insertion-ordered dict capped at ``window`` keys, in about a
    seventh of its memory.  Ids come from one global counter, so a new id is nearly
    always above every remembered one: that lookup is one comparison and
    that record one append.
    """

    __slots__ = ("peer", "window", "epoch", "_ring", "_head", "_sorted")

    #: class-level default; per-instance depth comes from
    #: ``ClusterConfig.dup_window`` (passed by the firmware)
    WINDOW = 512

    def __init__(self, peer: int, window: Optional[int] = None):
        self.peer = peer
        self.window = self.WINDOW if window is None else window
        self.epoch = 0
        #: remembered ids in delivery order; once full, a ring whose
        #: oldest entry is at ``_head``
        self._ring = array("q")
        self._head = 0
        #: the same ids, ascending
        self._sorted = array("q")

    def observe_epoch(self, epoch: int) -> bool:
        """Track the peer's epoch; True if it changed (peer rebooted)."""
        if epoch != self.epoch:
            self.epoch = epoch
            self._ring = array("q")
            self._head = 0
            self._sorted = array("q")
            return True
        return False

    def is_duplicate(self, msg_id: int) -> bool:
        s = self._sorted
        if not s or msg_id > s[-1]:
            return False
        i = bisect_left(s, msg_id)
        return s[i] == msg_id

    def record_delivery(self, msg_id: int) -> None:
        s = self._sorted
        if not s or msg_id > s[-1]:
            s.append(msg_id)
        else:
            i = bisect_left(s, msg_id)
            if s[i] == msg_id:
                return  # already remembered: keeps its place, evicts nothing
            s.insert(i, msg_id)
        ring = self._ring
        if len(ring) < self.window:
            ring.append(msg_id)
            return
        head = self._head
        oldest = ring[head]
        ring[head] = msg_id
        self._head = head + 1 if head + 1 < len(ring) else 0
        if s[0] == oldest:
            del s[0]
        else:
            del s[bisect_left(s, oldest)]
