"""The Active Messages II programming interface over virtual networks.

This is the paper's core contribution seen from the application (Section
3): communication is cast as split-phase remote procedure calls between
*endpoints*.  A process may hold many endpoints; addressability and access
rights among a collection of endpoints form a *virtual network*.

The user-level :class:`Endpoint` wraps the shared
:class:`~repro.nic.endpoint_state.EndpointState` with:

* translation-table addressing: operations name destinations by small
  integers; the protected NI stamps the key and the receiver verifies it;
* the request/reply paradigm with **user-level credits** — at most
  ``user_credits`` outstanding requests per translation entry, a credit
  returning with each reply (every request handler replies; the library
  issues a credit-only reply when the handler does not) — the lightweight
  mechanism that normally prevents receive-queue overrun (Section 6.4);
* bulk transfers fragmented at the MTU, reassembled at the receiver;
* polling (:meth:`poll`) and event-driven (:meth:`wait`) reception with
  endpoint event masks projected onto thread synchronization (§3.3);
* the return-to-sender error model: undeliverable messages come back and
  invoke the endpoint's undeliverable handler (§3.2).

All blocking operations are generators executed inside a
:class:`~repro.osim.threads.Thread` body; host CPU costs (send overhead
Os, receive overhead Or, polling cost by residency) are charged here,
which is where the LogP overheads of Figure 3 come from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..nic.endpoint_state import F_SHARED, RES_FREED, RES_ONNIC_RW, EndpointState, Residency
from ..nic.message import Message, MsgKind
from ..osim.threads import CondVar, Thread
from ..sim.core import AnyOf
from .elision import IDLE_ENDED, SpinWatch
from .errors import AmError, BadTranslationError, EndpointFreedError

if TYPE_CHECKING:
    from ..cluster.builder import Node

__all__ = ["Endpoint", "Token", "AmStats", "poll_until", "two_phase_wait"]

_transfer_ids = itertools.count(1)

#: block between empty polls of a poll-then-block spin (``then_block``)
BLOCK_NS = 2_000_000
#: an idle server thread's block between re-checks of its stop flag
SERVE_BLOCK_NS = 5_000_000
#: back-off between send-ring retries while the ring is full
RING_RETRY_NS = 1_000

#: handler signature: handler(token, *args) -> Optional[int]
#: (an int return value is charged to the polling thread as handler ns)
Handler = Callable[..., Optional[int]]


def poll_until(thr: Thread, ready: Callable[[], Any], target, *,
               idle: Optional[Callable[[], Generator]] = None, period: Optional[int] = None,
               limit: int = 8, deadline: Optional[int] = None) -> Generator:
    """The one poll-then-idle loop (DESIGN §16): polls ``target`` (an
    :class:`Endpoint`, a ``Bundle`` or a GAM endpoint) and returns
    ``ready()`` once truthy, or None once ``deadline`` has passed (checked
    before each poll).  After an empty poll it runs ``idle()`` (a block,
    stepped) or computes ``period`` ns (None: the target's touch cost),
    elided over ``target._watched`` (:mod:`repro.am.elision`)."""
    sim = thr.sim
    watched = getattr(target, "_watched", ()) if idle is None else ()
    watch = SpinWatch(thr, watched, target._backfill) if watched else None
    try:
        while True:
            if watch is not None:
                watch.arm()
            value = ready()
            if value:
                return value
            if deadline is not None and sim.now >= deadline:
                return None
            n = yield from target.poll(thr, limit)
            while n == 0:
                if idle is not None:
                    yield from idle()
                    break
                idle_ns = target._poll_touch_ns() if period is None else period
                if watch is not None and watch.commit((idle_ns, target._sweep_ns()), deadline):
                    if (yield watch) == IDLE_ENDED:
                        break  # at a ready check
                    # a poll's touch just ended: its queue check
                    n = yield from target._drain(thr, limit)
                    continue
                yield from thr.compute(idle_ns)
                break
    finally:
        if watch is not None:
            watch.close()


def two_phase_wait(thr: Thread, cfg, ready: Callable[[], Any], touch_ns: Callable[[], int], cvs,
                   timeout_ns: Optional[int] = None, deadline: Optional[int] = None,
                   eps=(), signals=()) -> Generator:
    """Section 6.3's two-phase wait (DESIGN §16): spin ``touch_ns()``
    until ``ready()`` or ``spin_before_block_us``, then block once on
    ``cvs`` plus ``timeout_ns`` (or until ``deadline``).  The endpoints
    ``eps`` must be alive on blocking and on waking.  Returns True when
    ``ready()`` held or a CondVar, not the timeout, woke it.

    ``ready()`` may read only the endpoints ``eps`` and the ``signals``
    sources (a collective handle): the spin is elided between their
    changes (:mod:`repro.am.elision`)."""
    sim = thr.sim
    spin_end = sim.now + round(cfg.spin_before_block_us * 1_000)
    watch = SpinWatch(thr, [ep.state for ep in eps] + list(signals)) if cfg.spin_elision else None
    try:
        while sim.now < spin_end:
            if watch is not None:
                watch.arm()
            if ready():
                return True
            cost = touch_ns()
            if watch is not None and watch.commit((cost,), spin_end):
                yield watch
                continue
            yield from thr.compute(cost)
    finally:
        if watch is not None:
            watch.close()
    if ready():
        return True
    if deadline is not None:
        timeout_ns = deadline - sim.now
        if timeout_ns <= 0:
            return False
    for ep in eps:
        ep._check_alive()
    waits = [cv.wait() for cv in cvs]
    if timeout_ns is not None:
        waits.append(sim.timeout(timeout_ns, "timeout"))
    idx, _ = yield from thr.block(AnyOf(sim, waits))
    for ep in eps:
        ep._check_alive()
    return bool(ready()) or idx < len(cvs)


@dataclass
class AmStats:
    requests_sent: int = 0
    replies_sent: int = 0
    auto_replies: int = 0
    requests_handled: int = 0
    replies_handled: int = 0
    bulk_bytes_sent: int = 0
    bulk_bytes_received: int = 0
    undeliverable: int = 0
    credit_stalls: int = 0
    ring_stalls: int = 0
    polls: int = 0
    wakeups: int = 0


class Token:
    """Receive-side handle passed to handlers; carries the reply path."""

    __slots__ = ("endpoint", "src_node", "src_ep", "reply_key", "request_id", "nbytes", "replied", "_reply_spec")

    def __init__(self, endpoint: "Endpoint", src_node: int, src_ep: int, reply_key: int, request_id: int, nbytes: int):
        self.endpoint = endpoint
        self.src_node = src_node
        self.src_ep = src_ep
        self.reply_key = reply_key
        self.request_id = request_id
        self.nbytes = nbytes
        self.replied = False
        self._reply_spec: Optional[tuple] = None

    def reply(self, handler: Optional[Handler], *args: Any, nbytes: int = 0) -> None:
        """Request handlers call this (at most once) to send the reply."""
        if self.replied:
            raise AmError("handler replied twice")
        self.replied = True
        self._reply_spec = (handler, args, nbytes)


class Endpoint:
    """User-level endpoint: the unit of network virtualization."""

    def __init__(self, node: "Node", state: EndpointState):
        self.node = node
        self.state = state
        self.cfg = node.cfg
        self.nic = node.nic
        self.driver = node.driver
        self._stats = AmStats()

        #: credits available per translation index (Section 6.4)
        self._credits: dict[int, int] = {}
        #: outstanding request id -> translation index (credit owner)
        self._outstanding: dict[int, int] = {}
        #: reassembly buffers: transfer_id -> [count, total, token parts]
        self._reassembly: dict[int, list] = {}
        self._event_cv = CondVar(node.sim, name=f"ep{state.ep_id}.ev")
        state.event_callback = self._on_event
        #: fn(msg, reason) invoked when a message is returned (§3.2)
        self.undeliverable_handler: Optional[Callable[[Message, Any], None]] = None
        #: default ns charged per handled message when a handler returns None
        self.handler_cost_ns = 0
        #: what an elided :func:`poll_until` on this endpoint watches
        self._watched = (state,) if self.cfg.spin_elision else ()
        #: a :meth:`request` credit wait is polling: each check is a stall
        self._stalling = False

    @property
    def stats(self) -> AmStats:
        """Counters, including the polls and credit stalls of a spin that
        is being fast-forwarded right now (:mod:`repro.am.elision`)."""
        waiter = self.state.waiter
        if waiter is not None:
            waiter.settle()
        return self._stats

    # ------------------------------------------------------------- identity
    @property
    def name(self) -> tuple[int, int]:
        return self.state.name

    @property
    def tag(self) -> int:
        return self.state.tag

    def set_tag(self, key: int) -> None:
        self.state.tag = key

    def set_shared(self, shared: bool = True) -> None:
        """Shared endpoints pay a lock cost per operation (Section 3.3)."""
        self.state.shared = shared
        if self.state.waiter is not None:
            self.state.waiter.signal()  # the touch cost changed

    def map(self, index: int, name: tuple[int, int], key: int) -> None:
        """Install a translation: small integer -> (endpoint name, key)."""
        node_id, ep_id = name
        self.state.map_translation(index, node_id, ep_id, key)
        self._credits.setdefault(index, self.cfg.user_credits)

    def unmap(self, index: int) -> None:
        self.state.unmap_translation(index)
        self._credits.pop(index, None)

    def credits_available(self, index: int) -> int:
        return self._credits.get(index, 0)

    # ----------------------------------------------------------- cost model
    def _check_alive(self) -> None:
        if self.state.residency is Residency.FREED:
            raise EndpointFreedError(f"endpoint {self.name} freed")

    def _lock_cost(self) -> int:
        return self.cfg.shared_ep_lock_ns if self.state.shared else 0

    def _poll_touch_ns(self) -> int:
        """Cost of inspecting the endpoint: uncacheable NI SRAM when
        resident, cacheable host memory otherwise (drives Figure 6 ST-96)."""
        if self.state.resident:
            return self.cfg.poll_resident_ns
        return self.cfg.poll_host_ns

    def _sweep_ns(self) -> int:
        """What a :meth:`poll` charges before its queue check."""
        return self._poll_touch_ns() + self._lock_cost()

    def _backfill(self, polls: int, sweeps: int) -> None:
        """Count an elided :func:`poll_until`'s skipped polls."""
        self._stats.polls += polls
        if self._stalling:
            self._stats.credit_stalls += polls

    def _send_overhead_ns(self) -> int:
        """LogP Os: descriptor write via PIO (resident) or a cacheable
        store into the on-host image (non-resident)."""
        if self.state.resident:
            return self.cfg.host_send_overhead_ns
        return self.cfg.host_write_nonresident_ns

    # ================================================================= send
    def request(
        self,
        thr: Thread,
        index: int,
        handler: Optional[Handler],
        *args: Any,
        nbytes: int = 0,
    ) -> Generator:
        """Issue an AM request (generator; blocks for credits/ring space).

        Payloads above ``small_payload_max_bytes`` take the bulk path and
        are fragmented at the MTU; every fragment consumes one credit.
        """
        self._check_alive()
        entry = self.state.translation.get(index)
        if entry is None:
            raise BadTranslationError(f"no translation at index {index} on {self.name}")
        mtu = self.cfg.mtu_bytes
        is_bulk = nbytes > self.cfg.small_payload_max_bytes
        if is_bulk:
            nfrags = max(1, -(-nbytes // mtu))
            tid = next(_transfer_ids)
        else:
            nfrags = 1
            tid = None
        sent = 0
        for frag in range(nfrags):
            frag_bytes = min(mtu, nbytes - sent) if is_bulk else nbytes
            sent += frag_bytes
            meta = {
                "reply_key": self.state.tag,
                "frag": (tid, frag, nfrags) if is_bulk else None,
                "auto": False,
            }
            body = (handler, args, meta)
            msg = Message(
                src_node=self.state.node,
                src_ep=self.state.ep_id,
                dst_node=entry.dst_node,
                dst_ep=entry.dst_ep,
                key=entry.key,
                kind=MsgKind.REQUEST,
                payload_bytes=frag_bytes,
                is_bulk=is_bulk,
                body=body,
            )
            msg.on_resolved = self._request_resolved
            if self._credits.get(index, 0) <= 0:
                self._stalling = True
                try:
                    yield from poll_until(thr, partial(self._credit_ready, index), self,
                                          period=self.cfg.poll_host_ns, limit=4)
                finally:
                    self._stalling = False
            self._outstanding[msg.msg_id] = index
            self._credits[index] -= 1
            yield from self._enqueue(thr, msg)
            self._stats.requests_sent += 1
            tr = self.node.sim.trace
            if tr.enabled:
                tr.emit("am.request", self.state.node, msg=msg.msg_id, ep=self.state.ep_id,
                        index=index, nbytes=frag_bytes, bulk=is_bulk)
            if is_bulk:
                self._stats.bulk_bytes_sent += frag_bytes
        return None

    def _credit_ready(self, index: int) -> bool:
        """Spin predicate of :meth:`request`: counts each stalled check."""
        if self._credits.get(index, 0) > 0:
            return True
        self._stats.credit_stalls += 1
        return False

    def _refund(self, index: int) -> None:
        """Return one credit of translation ``index`` (a reply arrived, or
        the request came back to its sender)."""
        if index in self._credits:
            self._credits[index] += 1
            if self.state.waiter is not None:
                self.state.waiter.signal()

    def _enqueue(self, thr: Thread, msg: Message) -> Generator:
        """Charge Os, write the descriptor, fault if non-resident."""
        while True:
            cost = self._send_overhead_ns() + self._lock_cost()
            yield from thr.compute(cost)
            if self.nic.host_enqueue_send(self.state, msg):
                break
            # Send ring full: drain some receive work and retry.
            self._stats.ring_stalls += 1
            processed = yield from self.poll(thr, limit=4)
            if processed == 0:
                yield from thr.compute(RING_RETRY_NS)
        if not self.state.resident:
            # Write fault path: on-host r/o -> r/w + schedule re-mapping
            # (Figure 2); blocks here only under the §6.4.1 ablation.
            yield from self.driver.write_fault(self.state, owner=thr)

    def _request_resolved(self, msg: Message, delivered: bool) -> None:
        """Transport resolution: on return-to-sender, refund the credit.

        (Delivered requests refund their credit when the reply arrives.)
        """
        if not delivered:
            index = self._outstanding.pop(msg.msg_id, None)
            if index is not None:
                self._refund(index)

    def _send_reply(self, token: Token, handler: Optional[Handler], args: tuple, nbytes: int, auto: bool) -> Message:
        meta = {
            "reply_key": self.state.tag,
            "frag": None,
            "auto": auto,
            "ack_for": token.request_id,
        }
        msg = Message(
            src_node=self.state.node,
            src_ep=self.state.ep_id,
            dst_node=token.src_node,
            dst_ep=token.src_ep,
            key=token.reply_key,
            kind=MsgKind.REPLY,
            payload_bytes=nbytes,
            is_bulk=nbytes > self.cfg.small_payload_max_bytes,
            body=(handler, args, meta),
        )
        return msg

    # ================================================================ receive
    def poll(self, thr: Thread, limit: int = 8) -> Generator:
        """Service arrived messages; returns how many were processed.

        Charges the endpoint-touch cost even when nothing is pending —
        polling many resident endpoints in uncacheable NI memory is
        expensive (Section 6.4's ST-96 observation).
        """
        # _check_alive/_poll_touch_ns/_lock_cost inlined, off the table's
        # columns: poll is the hottest endpoint entry point and the
        # helpers cost more than the arithmetic (costs charged are identical)
        st = self.state
        cfg = self.cfg
        table, row = st.table, st.row
        res = table.res[row]
        if res == RES_FREED:
            raise EndpointFreedError(f"endpoint {self.name} freed")
        self._stats.polls += 1
        cost = cfg.poll_resident_ns if res == RES_ONNIC_RW else cfg.poll_host_ns
        if table.flags[row] & F_SHARED:
            cost += cfg.shared_ep_lock_ns
        cpu = thr.cpu
        if cpu.open(thr, cost):  # Thread.compute's one-slice case, inlined
            yield cost
            cpu.close(thr, cost)
        else:
            yield from thr.compute(cost)
        if not (st.recv_requests or st.recv_replies or st.returned):
            return 0  # empty poll (the common case): skip the drain machinery
        return (yield from self._drain(thr, limit))

    def _drain(self, thr: Thread, limit: int) -> Generator:
        """Service up to ``limit`` pending messages; touch cost already paid.

        Split from :meth:`poll` so :meth:`Bundle.poll_all` can charge one
        lump-sum touch sweep for the whole bundle and then drain each
        endpoint without re-touching it.
        """
        processed = 0
        while processed < limit:
            msg = self.nic.host_poll_returned(self.state)
            if msg is not None:
                self._handle_returned(msg)
                processed += 1
                continue
            msg = self.nic.host_poll_recv(self.state, replies=True)
            if msg is not None:
                yield from self._consume(thr, msg)
                processed += 1
                continue
            msg = self.nic.host_poll_recv(self.state, replies=False)
            if msg is not None:
                yield from self._consume(thr, msg)
                processed += 1
                continue
            break
        return processed

    def _consume(self, thr: Thread, msg: Message) -> Generator:
        """Charge Or, run the handler, auto-reply if needed."""
        yield from thr.compute(self.cfg.host_recv_overhead_ns)
        handler, args, meta = msg.body if msg.body else (None, (), {})
        if msg.kind is MsgKind.REPLY:
            self._stats.replies_handled += 1
            # Return the credit for the acknowledged request (§6.4).
            index = self._outstanding.pop(meta.get("ack_for"), None)
            if index is not None:
                self._refund(index)
            if handler is not None:
                token = Token(self, msg.src_node, msg.src_ep, meta.get("reply_key", 0), msg.msg_id, msg.payload_bytes)
                cost = handler(token, *args)
                yield from self._charge_handler(thr, cost)
            return
        # --- request path ---
        self._stats.requests_handled += 1
        if msg.is_bulk:
            self._stats.bulk_bytes_received += msg.payload_bytes
        frag = meta.get("frag")
        if frag is not None:
            tid, i, n = frag
            slot = self._reassembly.setdefault(tid, [0, n, 0])
            slot[0] += 1
            slot[2] += msg.payload_bytes
            token = Token(self, msg.src_node, msg.src_ep, meta.get("reply_key", 0), msg.msg_id, msg.payload_bytes)
            if slot[0] < n:
                # Credit-only reply per fragment keeps the window moving.
                yield from self._emit_reply(thr, token, None, (), 0, auto=True)
                return
            total_bytes = slot[2]
            del self._reassembly[tid]
            token.nbytes = total_bytes
        else:
            token = Token(self, msg.src_node, msg.src_ep, meta.get("reply_key", 0), msg.msg_id, msg.payload_bytes)
        if handler is not None:
            cost = handler(token, *args)
            yield from self._charge_handler(thr, cost)
        if token.replied and token._reply_spec is not None:
            rhandler, rargs, rnbytes = token._reply_spec
            yield from self._emit_reply(thr, token, rhandler, rargs, rnbytes, auto=False)
        else:
            # Library-issued credit reply (request handlers must reply).
            yield from self._emit_reply(thr, token, None, (), 0, auto=True)

    def _charge_handler(self, thr: Thread, cost: Optional[int]) -> Generator:
        ns = cost if isinstance(cost, int) else self.handler_cost_ns
        if ns:
            yield from thr.compute(ns)

    def _emit_reply(self, thr: Thread, token: Token, handler, args, nbytes: int, auto: bool) -> Generator:
        msg = self._send_reply(token, handler, args, nbytes, auto)
        if auto:
            self._stats.auto_replies += 1
        else:
            self._stats.replies_sent += 1
        tr = self.node.sim.trace
        if tr.enabled:
            tr.emit("am.reply", self.state.node, msg=msg.msg_id, ep=self.state.ep_id,
                    auto=auto, req=token.request_id)
        yield from thr.compute(self._send_overhead_ns())
        while not self.nic.host_enqueue_send(self.state, msg):
            # The send ring is a fixed 64 descriptors (Section 5.2): when
            # it is full the handler's reply spins, which stops this
            # thread from draining further requests -- the coupling
            # through which a saturated reply path backs pressure into the
            # receive queue (and, past the credit window, into overrun
            # NACKs: Figure 6b).
            self._check_alive()
            self._stats.ring_stalls += 1
            yield from thr.compute(RING_RETRY_NS)
        if not self.state.resident:
            yield from self.driver.write_fault(self.state, owner=thr)

    def _handle_returned(self, msg: Message) -> None:
        """An undeliverable message came back (Section 3.2)."""
        self._stats.undeliverable += 1
        tr = self.node.sim.trace
        if tr.enabled:
            tr.emit("am.undeliverable", self.state.node, msg=msg.msg_id,
                    ep=self.state.ep_id, reason=getattr(msg.return_reason, "name", str(msg.return_reason)))
        if self.undeliverable_handler is not None:
            self.undeliverable_handler(msg, msg.return_reason)

    # ================================================================ events
    def has_pending(self) -> bool:
        st = self.state
        return bool(st.recv_requests or st.recv_replies or st.returned)

    def set_event_mask(self, kinds: set[str]) -> None:
        """Sensitize the endpoint's synchronization variable (§3.3)."""
        self.state.event_mask = set(kinds)

    def _on_event(self, detail: Any) -> None:
        self._stats.wakeups += 1
        self._event_cv.broadcast(detail)

    def wait(self, thr: Thread, timeout_ns: Optional[int] = None) -> Generator:
        """Block until a masked event fires (two-phase: spin, then sleep).

        Returns True if work is pending, False on timeout; raises
        :class:`EndpointFreedError` if the endpoint is freed meanwhile.
        The spin phase implements the implicit co-scheduling of §6.3.
        """
        self._check_alive()
        if not self.state.event_mask:
            self.set_event_mask({"recv"})
        return two_phase_wait(thr, self.cfg, self.has_pending, self._poll_touch_ns,
                              (self._event_cv,), timeout_ns, eps=(self,))

    def spin(self, thr: Thread, ready: Callable[[], Any], *, period: Optional[int] = None,
             limit: int = 8, deadline: Optional[int] = None, then_block: bool = False) -> Generator:
        """Poll this endpoint until ``ready()`` (:func:`poll_until`), idling
        ``period`` ns (None: the touch cost, re-read each time) or, with
        ``then_block``, in :meth:`wait` for up to :data:`BLOCK_NS`.

        ``ready()`` may read only what this endpoint's handlers, credit
        refunds and residency change: a compute-idle spin is elided
        between those changes (:mod:`repro.am.elision`)."""
        idle = partial(self.wait, thr, timeout_ns=BLOCK_NS) if then_block else None
        return poll_until(thr, ready, self, idle=idle, period=period, limit=limit, deadline=deadline)

    def serve(self, thr: Thread, stop: dict, timeout_ns: int = SERVE_BLOCK_NS,
              limit: int = 8) -> Generator:
        """Event-driven service loop: wait, drain until empty, repeat
        until ``stop["flag"]`` (a server thread body)."""
        self.set_event_mask({"recv"})
        yield from self.wait(thr, timeout_ns=timeout_ns)
        yield from poll_until(thr, lambda: stop.get("flag"), self,
                              idle=partial(self.wait, thr, timeout_ns=timeout_ns), limit=limit)

    # ============================================================ collectives
    def collective(
        self,
        thr: Thread,
        op: str,
        coll_id: int,
        members,
        root: int,
        value: Any = None,
        op_name: str = "sum",
        nbytes: int = 8,
    ) -> Generator:
        """Initiate a firmware collective and block for its completion.

        ``op`` is ``"barrier"``, ``"bcast"`` or ``"reduce"``; ``members``
        are the participating node ids (this node included) and ``root``
        the tree root.  ``coll_id`` must be agreed across members *by
        program order* (the ``lib.mpi`` communicator derives it from its
        synchronized collective sequence number) so every NI folds
        contributions of the same logical operation together.  The host
        charges one descriptor write (Os); the NI firmware does
        everything else.  Completion follows the same spin-then-block
        discipline as :meth:`wait`.  Raises
        :class:`~repro.nic.collective.CollectiveTimeout` after
        ``cfg.coll_timeout_ms`` or when the local NI resets mid-flight,
        and :class:`EndpointFreedError` if the endpoint is freed meanwhile.
        """
        self._check_alive()
        sim = self.node.sim
        members = tuple(sorted(members))
        if len(members) < 2:
            # Degenerate single-member vnet: nothing to synchronize.
            return value if op in ("bcast", "reduce") else None
        yield from thr.compute(self._send_overhead_ns() + self._lock_cost())
        handle = self.nic.coll.host_initiate(
            op, coll_id, members, root, value=value, op_name=op_name,
            payload_bytes=nbytes)
        deadline = sim.now + round(self.cfg.coll_timeout_ms * 1_000_000)
        finished = lambda: handle.done or handle.failed  # noqa: E731
        # The event CondVar wakes the wait on a free; any other endpoint
        # event just re-enters it.
        while not finished() and sim.now < deadline:
            yield from two_phase_wait(thr, self.cfg, finished, self._poll_touch_ns,
                                      (handle.cv, self._event_cv), deadline=deadline,
                                      eps=(self,), signals=(handle,))
        if handle.done:
            return handle.value
        from ..nic.collective import CollectiveTimeout
        if handle.failed:
            raise CollectiveTimeout(
                f"{op} id={coll_id} aborted: NI {self.state.node} reset")
        raise CollectiveTimeout(
            f"{op} id={coll_id} timed out on node {self.state.node} "
            f"after {self.cfg.coll_timeout_ms}ms")
