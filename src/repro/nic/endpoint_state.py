"""Endpoint state: slotted struct-of-arrays records + flyweight views.

An endpoint (Section 3) bundles message queues and associated state that
lives *beneath* the programming interface: a send descriptor ring, receive
queues for requests and replies, a protection tag, a translation table
mapping small integers to (endpoint name, key) pairs, and an event mask.
The same state is operated on by three agents — the user library (through
:mod:`repro.am`), the endpoint segment driver (:mod:`repro.osim.segdriver`)
and the NI firmware (:mod:`repro.nic.firmware`) — which is exactly the
coordination problem Sections 4 and 5 are about.

Memory layout (DESIGN.md §15).  The ROADMAP's fleet-scale target
(10^5–10^6 endpoints per run) is memory-impossible with one fat Python
object per endpoint, so the scalar state lives in an
:class:`EndpointTable`: parallel ``array('i')``/``array('q')`` columns
indexed by an integer row id, a few hundred bytes per endpoint instead of
a few KB.  :class:`EndpointState` survives as a thin ``__slots__``
flyweight *view* over one row — every scalar attribute is a property that
reads/writes its column — so the AM/segdriver/firmware call sites are
unchanged.  Replacement policies index the columns directly (by row id,
via ``EndpointTable.frame_rows``) and never materialize per-candidate
objects; the fleet sweep (:mod:`repro.scale.fleet`) drives tables with
no views at all.

Invariants shared by the three agents:

* a row's scalar state has exactly one home (its column slot); a view is
  never a cache, so concurrent mutation through different views of the
  same row is always coherent;
* ``frame_rows[f]`` mirrors ``Nic.frames[f]`` — ``-1`` iff the frame is
  empty, else the row id of the (possibly still loading) occupant;
* ``ring_used[row]`` mirrors ``len(view.send_ring)`` whenever a view
  exists (the send ring itself is a deque of in-flight ``Message``
  objects; the column carries only its occupancy, which is all the
  policies need).
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Deque, Optional

from .message import Message

__all__ = [
    "Residency",
    "TranslationEntry",
    "EndpointState",
    "EndpointStats",
    "EndpointTable",
]


class Residency(Enum):
    """The four-state residency protocol of Figure 2."""

    ONHOST_RO = "on-host r/o"
    ONHOST_RW = "on-host r/w"
    ONNIC_RW = "on-nic r/w"
    ONDISK = "on-disk"
    #: terminal state after free
    FREED = "freed"


#: residency enum <-> small-int column code (declaration order)
RES_MEMBER = tuple(Residency)
RES_CODE = {m: i for i, m in enumerate(RES_MEMBER)}
RES_ONHOST_RO, RES_ONHOST_RW, RES_ONNIC_RW, RES_ONDISK, RES_FREED = range(5)

#: flag bits in ``EndpointTable.flags``
F_QUIESCING = 1
F_TRANSITION = 2
F_MR_REQUESTED = 4
F_REFERENCED = 8
F_SHARED = 16
F_IN_ROTATION = 32


@dataclass(slots=True)
class TranslationEntry:
    """One slot of an endpoint translation table (Section 3.1)."""

    dst_node: int
    dst_ep: int
    key: int


class EndpointTable:
    """Struct-of-arrays backing store for a set of endpoints (one per NIC).

    Rows are append-only (``add_row``); a freed endpoint keeps its row in
    the FREED state rather than compacting, so row ids stay stable for
    the lifetime of the table.  ``adopt`` migrates a row created in
    another table (an :class:`EndpointState` constructed standalone) into
    this one, preserving every column value.
    """

    #: machine-int columns
    INT_COLS = ("ep_id", "res", "frame", "gen", "flags", "inflight",
                "deficit", "bulk_req", "bulk_rep", "ring_used", "tenant_id")
    #: 64-bit columns: timestamps + folded per-endpoint stats counters
    LONG_COLS = ("last_active", "evicted_at",
                 "st_enqueued", "st_delivered_in", "st_consumed",
                 "st_ring_full", "st_recv_drops")

    __slots__ = ("node", "frame_rows", "tenant_ref", "views") \
        + INT_COLS + LONG_COLS

    def __init__(self, node: int = 0, frames: int = 0):
        self.node = node
        for name in self.INT_COLS:
            setattr(self, name, array("i"))
        for name in self.LONG_COLS:
            setattr(self, name, array("q"))
        #: frame slot -> occupying row id (-1 = empty); mirrors Nic.frames
        self.frame_rows = array("i", bytes(0)) if frames == 0 else \
            array("i", [-1] * frames)
        #: row -> tenant object (None = untenanted); object refs cannot
        #: live in a typed column, and the fleet path never populates it
        self.tenant_ref: list = []
        #: row -> flyweight view, when one was constructed (sim path only)
        self.views: list = []

    # ------------------------------------------------------------- rows
    def __len__(self) -> int:
        return len(self.ep_id)

    def add_row(self, ep_id: int) -> int:
        """Append one endpoint row (on-host r/o, empty frame); returns it."""
        row = len(self.ep_id)
        self.ep_id.append(ep_id)
        self.res.append(RES_ONHOST_RO)
        self.frame.append(-1)
        self.gen.append(0)
        self.flags.append(0)
        self.inflight.append(0)
        self.deficit.append(0)
        self.bulk_req.append(0)
        self.bulk_rep.append(0)
        self.ring_used.append(0)
        self.tenant_id.append(-1)
        self.last_active.append(0)
        self.evicted_at.append(-1)
        self.st_enqueued.append(0)
        self.st_delivered_in.append(0)
        self.st_consumed.append(0)
        self.st_ring_full.append(0)
        self.st_recv_drops.append(0)
        self.tenant_ref.append(None)
        self.views.append(None)
        return row

    def adopt(self, ep: "EndpointState") -> int:
        """Migrate ``ep``'s row into this table (no-op if already here).

        Registration with a NIC binds a standalone endpoint to the NIC's
        table so frame bookkeeping and policy scans see one coherent
        column set.
        """
        if ep.table is self:
            return ep.row
        src, i = ep.table, ep.row
        j = self.add_row(src.ep_id[i])
        for name in self.INT_COLS + self.LONG_COLS:
            getattr(self, name)[j] = getattr(src, name)[i]
        self.tenant_ref[j] = src.tenant_ref[i]
        self.views[j] = ep
        src.views[i] = None
        ep.table = self
        ep.row = j
        ep.send_ring.table = self
        ep.send_ring.row = j
        ep.stats.table = self
        ep.stats.row = j
        return j

    # ----------------------------------------------------------- frames
    def ensure_frames(self, n: int) -> None:
        while len(self.frame_rows) < n:
            self.frame_rows.append(-1)

    def resident_count(self) -> int:
        """Occupied frames, straight off the column (no object walk)."""
        return sum(1 for r in self.frame_rows if r >= 0)

    # ----------------------------------------------------------- memory
    def nbytes(self) -> int:
        """Total table footprint, including list/array overheads."""
        total = sys.getsizeof(self)
        for name in self.INT_COLS + self.LONG_COLS:
            total += sys.getsizeof(getattr(self, name))
        total += sys.getsizeof(self.frame_rows)
        total += sys.getsizeof(self.tenant_ref)
        total += sys.getsizeof(self.views)
        return total

    def bytes_per_row(self) -> float:
        return self.nbytes() / max(1, len(self))


def _col_prop(name: str):
    def fget(self):
        return getattr(self.table, name)[self.row]

    def fset(self, value):
        getattr(self.table, name)[self.row] = value

    return property(fget, fset)


def _flag_prop(bit: int):
    def fget(self):
        return bool(self.table.flags[self.row] & bit)

    def fset(self, value):
        flags = self.table.flags
        if value:
            flags[self.row] |= bit
        else:
            flags[self.row] &= ~bit

    return property(fget, fset)


class _SendRing(deque):
    """Send-ring deque mirroring its occupancy into ``ring_used``.

    Policies rank candidates by queued work through the column alone, so
    every mutator keeps the mirror exact.
    """

    __slots__ = ("table", "row")

    def __init__(self, table: EndpointTable, row: int):
        super().__init__()
        self.table = table
        self.row = row

    def _sync(self) -> None:
        self.table.ring_used[self.row] = len(self)

    def append(self, item) -> None:
        deque.append(self, item)
        self.table.ring_used[self.row] += 1

    def appendleft(self, item) -> None:
        deque.appendleft(self, item)
        self.table.ring_used[self.row] += 1

    def popleft(self):
        item = deque.popleft(self)
        self.table.ring_used[self.row] -= 1
        return item

    def pop(self):
        item = deque.pop(self)
        self.table.ring_used[self.row] -= 1
        return item

    def clear(self) -> None:
        deque.clear(self)
        self.table.ring_used[self.row] = 0

    def extend(self, items) -> None:
        deque.extend(self, items)
        self._sync()

    def remove(self, item) -> None:
        deque.remove(self, item)
        self.table.ring_used[self.row] -= 1


class EndpointStats:
    """Flyweight view over the per-endpoint stats columns."""

    __slots__ = ("table", "row")

    def __init__(self, table: Optional[EndpointTable] = None, row: int = 0):
        if table is None:  # standalone stats: private single-row table
            table = EndpointTable()
            row = table.add_row(0)
        self.table = table
        self.row = row

    enqueued = _col_prop("st_enqueued")
    delivered_in = _col_prop("st_delivered_in")
    consumed = _col_prop("st_consumed")
    send_ring_full = _col_prop("st_ring_full")
    recv_drops = _col_prop("st_recv_drops")

    def __repr__(self) -> str:
        return (f"EndpointStats(enqueued={self.enqueued}, "
                f"delivered_in={self.delivered_in}, consumed={self.consumed}, "
                f"send_ring_full={self.send_ring_full}, "
                f"recv_drops={self.recv_drops})")


class EndpointState:
    """Queues + residency + protection state of one endpoint.

    A ``__slots__`` flyweight over one :class:`EndpointTable` row: the
    scalar state lives in the table's columns (each attribute below a
    property), only the things a table column cannot hold — the message
    deques, the translation dict, the event callback — live on the view.
    Constructed standalone (``table=None``) it owns a private single-row
    table, so unit tests and callers outside a NIC see the old interface
    unchanged.
    """

    __slots__ = ("table", "row", "node", "ep_id", "tag", "translation",
                 "send_ring_depth", "recv_queue_depth", "send_ring",
                 "recv_requests", "recv_replies", "returned",
                 "event_mask", "event_callback", "stats", "waiter")

    def __init__(
        self,
        node: int,
        ep_id: int,
        *,
        send_ring_depth: int,
        recv_queue_depth: int,
        tag: int = 0,
        table: Optional[EndpointTable] = None,
    ):
        if table is None:
            table = EndpointTable(node=node)
        self.table = table
        self.row = table.add_row(ep_id)
        self.node = node
        self.ep_id = ep_id
        #: protection tag: incoming messages must carry this key (§3.1)
        self.tag = tag
        self.translation: dict[int, TranslationEntry] = {}
        self.send_ring_depth = send_ring_depth
        self.recv_queue_depth = recv_queue_depth

        #: FIFO of Messages awaiting NI descriptor processing
        self.send_ring: Deque[Message] = _SendRing(table, self.row)
        #: arrived requests not yet consumed by the host (32-deep, §6.4)
        self.recv_requests: Deque[Message] = deque()
        #: arrived replies; sized like the request window (a reply slot is
        #: reserved per outstanding request, so replies never overrun)
        self.recv_replies: Deque[Message] = deque()
        #: messages returned to this (sending) endpoint as undeliverable
        self.returned: Deque[Message] = deque()

        #: which state transitions generate events ("recv", "returned")
        self.event_mask: set[str] = set()
        #: invoked (in driver context) when a masked event fires
        self.event_callback: Optional[Callable[[str], None]] = None
        #: the host spin waiting on this endpoint (:mod:`repro.am.elision`);
        #: every change a spin predicate can read calls ``signal()`` on it
        self.waiter: Any = None

        self.stats = EndpointStats(table, self.row)
        table.views[self.row] = self

    # ------------------------------------------------------ column views
    #: generation bumped on free; stale NI->driver notifications about a
    #: previous endpoint with the same id are discarded (§4.3 races)
    generation = _col_prop("gen")
    #: messages from this endpoint bound into the NI/network, not yet
    #: resolved; must drain to zero before unload (quiescence, §5.3)
    inflight = _col_prop("inflight")
    #: receive-queue slots reserved by in-flight bulk DMAs
    bulk_reserved_req = _col_prop("bulk_req")
    bulk_reserved_rep = _col_prop("bulk_rep")
    #: deficit carried between NI service visits when tenant rate
    #: limiting cut a visit short of its weighted quantum (messages)
    service_deficit = _col_prop("deficit")
    #: last service time, for LRU replacement
    last_active_ns = _col_prop("last_active")
    #: when this endpoint was last unloaded, -1 once residency is
    #: re-requested; a re-request within ``thrash_bounce_us`` of this
    #: stamp scores the eviction as a bounce (thrash, §6.4)
    evicted_at_ns = _col_prop("evicted_at")

    #: set while the driver is quiescing/unloading this endpoint
    quiescing = _flag_prop(F_QUIESCING)
    #: marks residency-change in progress (load or unload scheduled)
    transition = _flag_prop(F_TRANSITION)
    #: True while a make-resident request is pending at the driver
    #: (dedupes the NACK-triggered notifications of Section 4.2)
    mr_requested = _flag_prop(F_MR_REQUESTED)
    #: second-chance bit for the "clock" replacement policy; the NI
    #: firmware sets it on send service and message delivery, the
    #: policy's sweep clears it
    referenced = _flag_prop(F_REFERENCED)
    #: endpoints marked shared pay a lock cost per operation (§3.3)
    shared = _flag_prop(F_SHARED)
    #: WRR bookkeeping: True while queued in the NI service rotation
    in_rotation = _flag_prop(F_IN_ROTATION)

    @property
    def residency(self) -> Residency:
        return RES_MEMBER[self.table.res[self.row]]

    @residency.setter
    def residency(self, value: Residency) -> None:
        self.table.res[self.row] = RES_CODE[value]
        if self.waiter is not None:
            self.waiter.signal()  # the touch cost (or liveness) changed

    @property
    def frame(self) -> Optional[int]:
        f = self.table.frame[self.row]
        return None if f < 0 else f

    @frame.setter
    def frame(self, value: Optional[int]) -> None:
        self.table.frame[self.row] = -1 if value is None else value

    @property
    def tenant(self) -> Optional[Any]:
        """The :class:`repro.tenant.Tenant` this endpoint belongs to, or
        None (untenanted endpoints behave exactly as before: weight 1,
        no rate limit, no frame reservation).  Set via Tenant.adopt()."""
        return self.table.tenant_ref[self.row]

    @tenant.setter
    def tenant(self, value: Optional[Any]) -> None:
        self.table.tenant_ref[self.row] = value

    # --------------------------------------------------------------- naming
    @property
    def name(self) -> tuple[int, int]:
        """The opaque global endpoint name (Section 3.1)."""
        return (self.node, self.ep_id)

    def map_translation(self, index: int, dst_node: int, dst_ep: int, key: int) -> None:
        if index < 0:
            raise ValueError("translation index must be non-negative")
        self.translation[index] = TranslationEntry(dst_node, dst_ep, key)

    def unmap_translation(self, index: int) -> None:
        self.translation.pop(index, None)

    # --------------------------------------------------------------- queues
    @property
    def resident(self) -> bool:
        return self.table.res[self.row] == RES_ONNIC_RW

    def send_ring_free(self) -> int:
        return self.send_ring_depth - len(self.send_ring)

    def recv_room(self, is_reply: bool) -> bool:
        if is_reply:
            return len(self.recv_replies) + self.bulk_reserved_rep < self.recv_queue_depth
        return len(self.recv_requests) + self.bulk_reserved_req < self.recv_queue_depth

    def total_queued(self) -> int:
        return (
            len(self.send_ring)
            + len(self.recv_requests)
            + len(self.recv_replies)
            + len(self.returned)
        )

    def has_sendable(self) -> bool:
        t, r = self.table, self.row
        return bool(self.send_ring) and t.res[r] == RES_ONNIC_RW \
            and not (t.flags[r] & F_QUIESCING)

    def __repr__(self) -> str:
        return (
            f"<EP ({self.node},{self.ep_id}) {self.residency.value}"
            f" sr={len(self.send_ring)} rq={len(self.recv_requests)}"
            f" inflight={self.inflight}>"
        )
