"""Firmware-forwarded collective operations (barrier / broadcast / reduce).

The paper leaves the NI programmable precisely so communication patterns
beyond point-to-point can run without host round-trips; Yu et al.
(PAPERS.md) show NIC-level barrier/broadcast beating host-level trees for
exactly this reason.  This module is that extension: each participating
host posts **one** descriptor to its local NI and receives **one**
completion — all interior forwarding happens NI-to-NI over fire-and-forget
``COLL`` packets, charged per-step instruction budgets against the NI's
LogP occupancy like every other firmware operation.

Protocol
--------
Spanning-tree state is held per ``(root, vnet)`` in NI memory
(:class:`CollTree`, cached in :attr:`CollectiveEngine.trees`); the tree is
a deterministic k-ary rotation of the sorted membership with the root
first, so every NI derives the identical tree locally.  Barrier and
reduce run an **up phase** (each NI combines its host's contribution with
its children's partials and forwards one packet to its parent) followed —
for barrier — by a **down phase** releasing the members.  Broadcast is a
pure down phase.  Interior fan-out is ``cfg.coll_fanout``, and the down
phase is forwarded hop-by-hop through the tree: the fabric only routes
point-to-point worms, as the paper's Myrinet switches did.

``COLL`` packets carry no flow-control channel and are never
retransmitted: a lost or corrupted step surfaces as a clean host-side
:class:`CollectiveTimeout` (``cfg.coll_timeout_ms``), never a deadlock.

Tree invalidation
-----------------
:meth:`CollectiveEngine.reset` drops every cached tree and fails every
pending operation; :meth:`~repro.nic.firmware.Nic.crash` *and*
:meth:`~repro.nic.firmware.Nic.reboot` both call it, so a rebooted NI can
never forward stale collective edges (the leak class the PR-5 re-attach
path had for rx handlers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..myrinet.packet import Packet, PacketType

if TYPE_CHECKING:
    from .firmware import Nic

__all__ = ["COMBINE_OPS", "CollTree", "CollectiveEngine", "CollectiveTimeout",
           "CollStats"]

#: integer combine operators for firmware reduce; names are the wire
#: representation (the descriptor carries the name, never the callable)
COMBINE_OPS = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "max": max,
    "min": min,
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}

#: wire size of a collective descriptor packet's payload (combine value /
#: control word); broadcast payloads add their own bytes
_COLL_DESC_BYTES = 8


class CollectiveTimeout(Exception):
    """A firmware collective did not complete (lost step, crashed tree
    node, or local NI reset) before the host-side deadline."""


@dataclass
class CollStats:
    ops_started: int = 0
    up_sent: int = 0
    down_sent: int = 0
    combines: int = 0
    completed: int = 0
    #: pending operations failed by a crash/reboot reset
    aborted: int = 0


class CollTree:
    """The deterministic spanning tree of one (root, membership, fanout).

    Virtual ranks are the sorted membership rotated root-first; node
    ``v``'s parent is ``(v-1)//fanout`` and its children are
    ``fanout*v+1 .. fanout*v+fanout``.  Every NI computes the identical
    tree from the descriptor alone — no tree-construction traffic.
    """

    __slots__ = ("root", "members", "fanout", "order", "parent", "children")

    def __init__(self, root: int, members: tuple, fanout: int):
        self.root = root
        self.members = members  # sorted tuple, root included
        self.fanout = fanout
        sm = list(members)
        ri = sm.index(root)
        self.order = sm[ri:] + sm[:ri]
        n = len(self.order)
        self.parent = {}
        self.children = {}
        for v, nid in enumerate(self.order):
            self.parent[nid] = self.order[(v - 1) // fanout] if v > 0 else None
            self.children[nid] = [
                self.order[c] for c in range(fanout * v + 1,
                                             min(fanout * v + fanout + 1, n))
            ]


class _CollHandle:
    """Host-side completion handle: one CondVar, one result slot."""

    __slots__ = ("cv", "done", "failed", "value", "waiter")

    def __init__(self, sim, name: str):
        # Imported here, not at module top: repro.osim pulls in the
        # segment driver, which imports the firmware that imports us.
        from ..osim.threads import CondVar
        self.cv = CondVar(sim, name=name)
        self.done = False
        self.failed = False
        self.value: Any = None
        #: the host spin waiting on this handle (:mod:`repro.am.elision`)
        self.waiter: Any = None

    def complete(self, value: Any) -> None:
        self.done = True
        self.value = value
        if self.waiter is not None:
            self.waiter.signal()
        self.cv.broadcast(value)

    def fail(self) -> None:
        self.failed = True
        if self.waiter is not None:
            self.waiter.signal()
        self.cv.broadcast(None)


class _CollOp:
    """Per-NI state of one in-flight collective operation."""

    __slots__ = ("key", "kind", "root", "members", "op_name", "tree", "got",
                 "partial", "self_arrived", "down_done", "down_value",
                 "handle")

    def __init__(self, key, kind, root, members, op_name, tree):
        self.key = key
        self.kind = kind
        self.root = root
        self.members = members
        self.op_name = op_name
        self.tree = tree
        self.got = 0              # child up-contributions received
        self.partial = None       # folded reduce value so far
        self.self_arrived = False
        self.down_done = False
        self.down_value = None
        self.handle: Optional[_CollHandle] = None


class CollectiveEngine:
    """The collective half of one NI's firmware.

    Owned by :class:`~repro.nic.firmware.Nic`; every generator here runs
    inside the NI dispatch loop (via ``_internal_q`` work items or the
    ``COLL`` branch of ``_handle_rx``), so instruction charges serialize
    with all other firmware work — which is exactly how collectives
    consume the NI's LogP occupancy.
    """

    def __init__(self, nic: "Nic"):
        self.nic = nic
        self.stats = CollStats()
        #: (root, members, fanout) -> CollTree, the per-(root, vnet)
        #: spanning-tree state held in NI memory
        self.trees: dict[tuple, CollTree] = {}
        #: (members, kind, coll_id, root) -> _CollOp
        self.pending: dict[tuple, _CollOp] = {}

    # ------------------------------------------------------------ lifecycle
    def reset(self) -> None:
        """Crash/reboot: drop all tree state, fail all pending ops.

        A rebooted NI must never forward collective edges computed
        before the reset, and host threads blocked on a handle must get
        a prompt failure instead of waiting out the full timeout.
        """
        self.trees.clear()
        ops, self.pending = list(self.pending.values()), {}
        for op in ops:
            if op.handle is not None and not op.handle.done:
                self.stats.aborted += 1
                op.handle.fail()

    # ------------------------------------------------------------- plumbing
    def _tree(self, root: int, members: tuple) -> CollTree:
        fanout = self.nic.cfg.coll_fanout
        key = (root, members, fanout)
        tree = self.trees.get(key)
        if tree is None:
            tree = self.trees[key] = CollTree(root, members, fanout)
        return tree

    def _op(self, kind: str, coll_id: int, root: int, members: tuple,
            op_name: str) -> _CollOp:
        key = (members, kind, coll_id, root)
        op = self.pending.get(key)
        if op is None:
            tree = self._tree(root, members)
            op = self.pending[key] = _CollOp(
                key, kind, root, members, op_name, tree)
        return op

    def _coll_pkt(self, dst: int, phase: str, op: _CollOp, coll_id: int,
                  value: Any, payload_bytes: int) -> Packet:
        return Packet.alloc(
            self.nic.nic_id, dst, PacketType.COLL,
            payload_bytes=payload_bytes,
            body=(op.kind, coll_id, op.root, op.members, op.op_name, phase,
                  value),
        )

    def _charge(self, label: str, instr: int) -> int:
        return self.nic.meter.cost_ns(label, instr)

    # ----------------------------------------------------- host initiation
    def host_initiate(self, kind: str, coll_id: int, members: tuple,
                      root: int, value: Any = None, op_name: str = "sum",
                      payload_bytes: int = _COLL_DESC_BYTES) -> _CollHandle:
        """Post one collective descriptor to this NI (host side, instant);
        the firmware dispatch loop picks it up as completion work.  The
        caller blocks on the returned handle."""
        nic = self.nic
        handle = _CollHandle(nic.sim, name=f"nic{nic.nic_id}.coll{coll_id}")
        self.stats.ops_started += 1

        nic._internal_q.append((self._initiate, (kind, coll_id, members, root,
                                                  op_name, value, payload_bytes,
                                                  handle)))
        nic._work.set()
        return handle

    def _initiate(self, kind, coll_id, members, root, op_name, value,
                  payload_bytes, handle):
        yield self._charge("coll_init", self.nic.cfg.ni_coll_init_instr)
        yield from self._local_arrive(kind, coll_id, members, root,
                                      op_name, value, payload_bytes, handle)

    def _local_arrive(self, kind, coll_id, members, root, op_name, value,
                      payload_bytes, handle):
        nic = self.nic
        op = self._op(kind, coll_id, root, members, op_name)
        op.handle = handle
        if kind == "bcast":
            if root == nic.nic_id:
                yield from self._start_down(op, coll_id, value, payload_bytes)
                self._complete(op, value)
            elif op.down_done:
                # The root's down phase raced ahead of this host's post.
                self._complete(op, op.down_value)
            return
        # barrier / reduce: this host has arrived
        op.self_arrived = True
        if kind == "reduce" and value is not None:
            if op.partial is None:
                op.partial = value
            else:
                yield self._charge("coll_combine", nic.cfg.ni_coll_combine_instr)
                self.stats.combines += 1
                op.partial = COMBINE_OPS[op.op_name](op.partial, value)
        yield from self._maybe_send_up(op, coll_id, payload_bytes)

    # --------------------------------------------------------- wire receive
    def handle_rx(self, pkt: Packet):
        """One COLL packet from the wire (dispatched ahead of data, like
        ACK/NACK — collective steps are latency-critical control)."""
        nic = self.nic
        kind, coll_id, root, members, op_name, phase, value = pkt.body
        if nic.nic_id not in members:
            return  # stale/misrouted step for a membership we left
        op = self._op(kind, coll_id, root, members, op_name)
        if phase == "up":
            yield self._charge("coll_up", nic.cfg.ni_coll_up_instr)
            op.got += 1
            if op.kind == "reduce" and value is not None:
                if op.partial is None:
                    op.partial = value
                else:
                    yield self._charge("coll_combine",
                                       nic.cfg.ni_coll_combine_instr)
                    self.stats.combines += 1
                    op.partial = COMBINE_OPS[op.op_name](op.partial, value)
            if nic.sim.trace.enabled:
                nic.sim.trace.emit("coll.up", nic.nic_id, op=kind, id=coll_id,
                                   got=op.got)
            yield from self._maybe_send_up(op, coll_id, pkt.payload_bytes)
        else:  # down
            yield self._charge("coll_down", nic.cfg.ni_coll_down_instr)
            op.down_done = True
            op.down_value = value
            if nic.sim.trace.enabled:
                nic.sim.trace.emit("coll.down", nic.nic_id, op=kind, id=coll_id)
            # Interior forwarding: relay the down phase to our subtree.
            yield from self._start_down(op, coll_id, value, pkt.payload_bytes)
            if op.handle is not None:
                self._complete(op, value if op.kind == "bcast" else None)
            # else: bcast down outran the local post; _local_arrive
            # completes from the stored down_value.

    # -------------------------------------------------------------- phases
    def _maybe_send_up(self, op: _CollOp, coll_id: int, payload_bytes: int):
        nic = self.nic
        children = op.tree.children.get(nic.nic_id, ())
        if not op.self_arrived or op.got < len(children):
            return
        if nic.nic_id == op.root:
            # Every member has arrived.
            if op.kind == "reduce":
                self._complete(op, op.partial)
            else:  # barrier: release the members
                yield from self._start_down(op, coll_id, None, payload_bytes)
                self._complete(op, None)
            return
        parent = op.tree.parent[nic.nic_id]
        yield self._charge("coll_up", nic.cfg.ni_coll_up_instr)
        self.stats.up_sent += 1
        if nic.sim.trace.enabled:
            nic.sim.trace.emit("coll.fwd_up", nic.nic_id, op=op.kind,
                               id=coll_id, to=parent)
        nic.network.send(self._coll_pkt(parent, "up", op, coll_id,
                                        op.partial, payload_bytes))
        if op.kind == "reduce":
            # Locally complete: our contribution is on its way to the
            # root; only the root observes the folded result.
            self._complete(op, None)
        # barrier: stay pending until the down phase releases us.

    def _start_down(self, op: _CollOp, coll_id: int, value: Any,
                    payload_bytes: int):
        nic = self.nic
        for child in op.tree.children.get(nic.nic_id, ()):
            yield self._charge("coll_down", nic.cfg.ni_coll_down_instr)
            self.stats.down_sent += 1
            nic.network.send(self._coll_pkt(child, "down", op, coll_id,
                                            value, payload_bytes))

    def _complete(self, op: _CollOp, value: Any) -> None:
        self.pending.pop(op.key, None)
        self.stats.completed += 1
        if self.nic.sim.trace.enabled:
            self.nic.sim.trace.emit("coll.complete", self.nic.nic_id,
                                    op=op.kind, id=op.key[2])
        if op.handle is not None:
            op.handle.complete(value)
