"""The network interface firmware (Section 5).

One :class:`Nic` models a LANai 4.3 board: a single slow embedded core
running a dispatch loop, a set of endpoint frames in on-board SRAM, a
shared SBus DMA engine, and the transport protocol of Section 5.1.  The
dispatch loop is the serial resource everything contends for; every action
it takes is charged an instruction budget from the configuration, which is
how virtualization's gap and latency costs (Figure 3) arise.

Responsibilities (Section 5):
  * packet transmission mechanics and the stop-and-wait multi-channel
    transport with positive/negative acknowledgment, randomized
    exponential backoff, channel unbind/rebind, and return-to-sender;
  * fair service of multiple resident endpoints: weighted round-robin
    across endpoints, FCFS within one, loitering at most ``wrr_max_msgs``
    messages / ``wrr_max_ns`` on one endpoint (Section 5.2);
  * overlapping driver operations (load/unload/quiesce) with ongoing
    communication: a lockup-free cache of the most active endpoints
    (Section 5.3).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from ..cluster.config import ClusterConfig
from ..hw.lanai import LanaiMeter
from ..hw.sbus import SbusDma
from ..myrinet.network import Network
from ..myrinet.packet import NackReason, Packet, PacketType
from ..sim.core import Simulator
from ..sim.resources import Gate, GateTimeout, Store
from ..sim.rng import RngStreams
from .channels import RxPeerState, TxChannel, backoff_ns
from .collective import CollectiveEngine
from .driver_port import DriverOp, LamportClock, NicNotify
from .endpoint_state import EndpointState, EndpointTable, Residency
from .message import Message, MessageState, MsgKind

__all__ = ["Nic", "NicStats"]


@dataclass
class NicStats:
    data_sent: int = 0
    data_recv: int = 0
    bytes_sent: int = 0
    bytes_recv: int = 0
    acks_sent: int = 0
    acks_recv: int = 0
    nacks_sent: dict = field(default_factory=dict)
    nacks_recv: int = 0
    retransmissions: int = 0
    unbinds: int = 0
    rebinds: int = 0
    returns: int = 0
    deliveries: int = 0
    dup_reacks: int = 0
    crc_drops: int = 0
    driver_ops: int = 0
    make_resident_notifies: int = 0
    stale_acks: int = 0

    def count_nack(self, reason: NackReason) -> None:
        self.nacks_sent[reason] = self.nacks_sent.get(reason, 0) + 1


class Nic:
    """One network interface board and its firmware."""

    def __init__(
        self,
        sim: Simulator,
        cfg: ClusterConfig,
        nic_id: int,
        network: Network,
        rngs: Optional[RngStreams] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.nic_id = nic_id
        self.network = network
        network.attach(nic_id, self._on_wire_rx)
        self.sbus = SbusDma(sim, cfg, name=f"nic{nic_id}.sbus")
        self.meter = LanaiMeter(cfg)
        self.rng = (rngs or RngStreams(cfg.seed)).stream(f"nic{nic_id}")
        self.clock = LamportClock()
        self.stats = NicStats()

        #: all endpoints the driver has registered on this node
        self.endpoints: dict[int, EndpointState] = {}
        #: struct-of-arrays backing store for this NIC's endpoint state;
        #: every endpoint registered here has its row in it, so policies
        #: index columns instead of walking objects (DESIGN.md §15).  Its
        #: ``frame_rows`` is the scarce resource: the endpoint frames in
        #: NI SRAM (Section 4.1), each the row of its occupant or -1
        self.table = EndpointTable(node=nic_id, frames=cfg.endpoint_frames)

        #: receive staging FIFO: bounded; a full FIFO backpressures the
        #: wire (the delivering packet holds its last link until a slot
        #: frees), which is how overload is pushed back into the network
        self._rx_store = Store(sim, capacity=cfg.ni_rx_fifo_packets, name=f"nic{nic_id}.rx")
        #: protocol packets (ACK/NACK) dispatch ahead of queued data --
        #: they are header-only and the firmware keys its dispatch on the
        #: packet type, so a data backlog never delays acknowledgments
        self._rx_proto_q: Deque[Packet] = deque()
        self._driver_q: Deque[DriverOp] = deque()
        #: completion work (bulk DMA done, collective initiation) as
        #: ``(generator function, args)``, serialized through the dispatch
        #: loop like the real firmware's interrupt handling
        self._internal_q: Deque[tuple] = deque()
        #: msg_ids of bulk deliveries whose DMA is still in progress;
        #: retransmitted copies that arrive meanwhile are dropped silently
        self._rx_inflight: set[int] = set()
        #: NI -> driver notifications, consumed by the driver proxy thread
        self.to_driver = Store(sim, name=f"nic{nic_id}.notify")
        self._work = Gate(sim, name=f"nic{nic_id}.work")

        self._tx_channels: dict[int, list[TxChannel]] = {}
        self._rx_peers: dict[int, RxPeerState] = {}
        #: endpoints whose ring head is blocked waiting for a channel to a peer
        self._blocked_on_peer: dict[int, Deque[EndpointState]] = {}

        #: WRR service rotation of endpoints with sendable work
        self._rotation: Deque[EndpointState] = deque()
        self._cur: Optional[EndpointState] = None
        self._cur_count = 0
        self._cur_since = 0
        #: endpoints deferred because their tenant's token bucket was
        #: empty: (ready_ns, tiebreak, ep) heap, re-admitted to the
        #: rotation once the bucket has refilled
        self._throttled: list = []

        #: retransmission timers: (deadline, tiebreak, channel, gen)
        self._timers: list = []
        #: unbound messages awaiting channel reacquisition
        self._unbound: list = []
        self._tie = itertools.count()
        #: messages unbound from channels, by id (for stale-ACK matching)
        self._unbound_by_id: dict[int, Message] = {}

        self._pending_unloads: list[tuple[EndpointState, DriverOp]] = []
        #: alternates receive/transmit service so neither starves under
        #: overload (the real board's send and receive paths are separate
        #: DMA engines the firmware interleaves)
        self._rx_turn = True
        self.epoch = 1
        self.alive = True
        #: firmware collective operations (barrier/broadcast/reduce)
        self.coll = CollectiveEngine(self)
        self._proc = sim.spawn(self._main_loop(), name=f"nic{nic_id}.fw")

    # ====================================================== host-facing API
    def host_enqueue_send(self, ep: EndpointState, msg: Message) -> bool:
        """Append a message descriptor to an endpoint's send ring.

        Returns False when the ring is full (the caller spins/blocks).
        Host-side time is charged by the caller; this only mutates state.
        """
        if ep.send_ring_free() <= 0:
            return False
        msg.enqueued_ns = self.sim.now
        msg.state = MessageState.PENDING
        ep.send_ring.append(msg)
        if ep.resident and not ep.quiescing:
            self._enqueue_rotation(ep)
            self._work.set()
        return True

    def host_poll_recv(self, ep: EndpointState, replies: bool = False) -> Optional[Message]:
        """Pop one arrived message (host cost charged by the caller)."""
        q = ep.recv_replies if replies else ep.recv_requests
        if q:
            return q.popleft()
        return None

    def host_poll_returned(self, ep: EndpointState) -> Optional[Message]:
        """Pop one returned-to-sender message (Section 3.2)."""
        if ep.returned:
            return ep.returned.popleft()
        return None

    # ===================================================== driver-facing API
    def driver_request(self, op: DriverOp):
        """Queue a driver->NI operation; completion triggers ``op.done``.

        ``op.clock`` keeps the driver's Lamport stamp; the firmware merges
        it when it handles the op."""
        self._driver_q.append(op)
        self._work.set()
        return op.done

    def free_frame_index(self) -> Optional[int]:
        for i, row in enumerate(self.table.frame_rows):
            if row < 0:
                return i
        return None

    def _vacate(self, ep: EndpointState, frame: Optional[int]) -> None:
        """Empty ``frame`` if ``ep``'s row occupies it."""
        frame_rows = self.table.frame_rows
        if frame is not None and frame_rows[frame] == ep.row:
            frame_rows[frame] = -1

    # ========================================================== fault hooks
    def crash(self) -> None:
        """Node failure: the NI stops processing and loses its state."""
        self.alive = False
        self.network.set_nic_dead(self.nic_id, True)
        # Fully unplug from the fabric so crash/reboot cycles never leak
        # rx handlers (reboot re-attaches).
        if self.network.attached(self.nic_id):
            self.network.detach(self.nic_id)
        while True:
            ok, _ = self._rx_store.try_get()
            if not ok:
                break
        # Collective tree state lives in NI SRAM: it is gone with the
        # crash, and pending host handles must fail promptly.
        self.coll.reset()

    def reboot(self) -> None:
        """Restart with a new channel epoch; peers resynchronize (§5.1)."""
        if not self.network.attached(self.nic_id):
            self.network.attach(self.nic_id, self._on_wire_rx)
        self.alive = True
        self.epoch += 1
        for chans in self._tx_channels.values():
            for ch in chans:
                for orphan in ch.reset(self.epoch):
                    self._resolve_returned(orphan, "reboot")
        self._rx_peers.clear()
        # Re-attach must not resurrect pre-crash collective trees: a
        # rebooted NI forwarding stale (root, vnet) edges is the same
        # leak class as the rx-handler leak the detach above prevents.
        self.coll.reset()
        self.network.set_nic_dead(self.nic_id, False)
        self._work.set()

    # ========================================================== wire receive
    def _on_wire_rx(self, pkt: Packet):
        """Wire delivery: returns a waitable while the rx FIFO is full."""
        if not self.alive:
            return None
        if pkt.kind in (PacketType.ACK, PacketType.NACK, PacketType.COLL):
            self._rx_proto_q.append(pkt)
            self._work.set()
            return None
        ev = self._rx_store.offer(pkt)
        self._work.set()
        return ev

    # ============================================================ main loop
    def _main_loop(self):
        # Parking yields the Gate itself (and one reusable GateTimeout
        # when a timer is pending) rather than gate.wait()/AnyOf: same
        # wakeup order, no per-park Event/Timeout/closure allocations.
        sim = self.sim
        work = self._work
        park = GateTimeout(work)
        while True:
            work.clear()
            if not self.alive:
                yield work
                continue
            progress = yield from self._step()
            self._check_unloads()
            if not progress:
                deadline = self._next_deadline()
                if deadline is None:
                    yield work
                else:
                    yield park.after(max(0, deadline - sim.now))

    def _step(self):
        """One dispatch-loop iteration; True if any work was done.

        Priority: completion work first, then driver requests (the
        driver endpoint is interleaved, §5.3), then receive traffic, then
        due retransmissions, then unbound-message rebinds, then WRR send
        service.
        """
        if self._internal_q:
            fn, args = self._internal_q.popleft()
            yield from fn(*args)
            return True
        if self._driver_q:
            # The NI interleaves servicing of the driver endpoint among
            # all others (Section 5.3): driver operations must not starve
            # behind a receive flood.
            op = self._driver_q.popleft()
            yield from self._handle_driver_op(op)
            return True
        # Alternate receive and transmit service so a receive flood
        # cannot starve the send path (nor vice versa).
        self._rx_turn = not self._rx_turn
        first, second = (self._rx_phase, self._tx_phase) if self._rx_turn else (self._tx_phase, self._rx_phase)
        done = yield from first()
        if done:
            return True
        done = yield from second()
        return done

    def _rx_phase(self):
        if self._rx_proto_q:
            pkt = self._rx_proto_q.popleft()
            yield from self._handle_rx(pkt)
            return True
        ok, pkt = self._rx_store.try_get()
        if ok:
            yield from self._handle_rx(pkt)
            return True
        return False

    def _tx_phase(self):
        ch = self._pop_due_timer()
        if ch is not None:
            yield from self._handle_timer(ch)
            return True
        msg = self._pop_due_unbound()
        if msg is not None:
            yield from self._try_rebind(msg)
            return True
        ep = self._next_service_ep()
        if ep is not None:
            yield from self._service_send(ep)
            return True
        return False

    # ===================================================== WRR send service
    def _enqueue_rotation(self, ep: EndpointState) -> None:
        if not ep.in_rotation:
            ep.in_rotation = True
            self._rotation.append(ep)

    def _park_throttled(self, ep: EndpointState, ready_ns: int) -> None:
        heapq.heappush(self._throttled, (ready_ns, next(self._tie), ep))

    def _readmit_throttled(self, now: int) -> None:
        while self._throttled and self._throttled[0][0] <= now:
            _, _, ep = heapq.heappop(self._throttled)
            if ep.has_sendable():
                self._enqueue_rotation(ep)

    def _next_service_ep(self) -> Optional[EndpointState]:
        """Weighted deficit rotation across endpoints (tenant-aware §5.2).

        Untenanted endpoints keep the plain WRR loiter budget.  A tenant
        endpoint's visit quantum scales with its tenant's service weight
        (``weight × wrr_max_msgs`` messages / ``weight × wrr_max_ns``),
        and a visit cut short because the tenant's token bucket ran dry
        carries the unused quantum — bounded to one full quantum — as a
        deficit for the endpoint's next visit.
        """
        cfg = self.cfg
        now = self.sim.now
        if self._throttled:
            self._readmit_throttled(now)
        # Loiter on the current endpoint within its weighted budget.
        if self._cur is not None:
            ep = self._cur
            tenant = ep.tenant
            w = tenant.spec.weight if tenant is not None else 1
            budget = cfg.wrr_max_msgs * w + ep.service_deficit
            within = (
                self._cur_count < budget
                and now - self._cur_since < cfg.wrr_max_ns * w
            )
            if (within and ep.has_sendable()
                    and self._free_channel(ep.send_ring[0].dst_node) is not None):
                if tenant is None or tenant.bucket is None \
                        or tenant.bucket.try_take(now):
                    return ep
                # Rate limited mid-visit: defer to the bucket's refill,
                # carrying the unserved quantum as (bounded) deficit.
                tenant.stats.throttled += 1
                ep.service_deficit = min(budget - self._cur_count,
                                         cfg.wrr_max_msgs * w)
                self._cur = None
                ep.in_rotation = False
                self._park_throttled(ep, tenant.bucket.ready_at(now))
            else:
                self._cur = None
                ep.service_deficit = 0  # quantum consumed or ring drained
                if ep.has_sendable():
                    if self._free_channel(ep.send_ring[0].dst_node) is not None:
                        self._rotation.append(ep)  # budget spent: to the back
                    else:
                        # Just-served endpoint yields to waiters that never ran.
                        ep.in_rotation = False
                        self._block_on_peer(ep, ep.send_ring[0].dst_node, front=False)
                else:
                    ep.in_rotation = False
        scanned = 0
        while self._rotation:
            ep = self._rotation.popleft()
            scanned += 1
            if not ep.has_sendable():
                ep.in_rotation = False
                continue
            if self._free_channel(ep.send_ring[0].dst_node) is None:
                # Blocked before being served this round: keep its place at
                # the head of the waiter queue (WRR fairness, §5.2).
                ep.in_rotation = False
                self._block_on_peer(ep, ep.send_ring[0].dst_node, front=True)
                continue
            tenant = ep.tenant
            if tenant is not None and tenant.bucket is not None \
                    and not tenant.bucket.try_take(now):
                tenant.stats.throttled += 1
                ep.in_rotation = False
                self._park_throttled(ep, tenant.bucket.ready_at(now))
                continue
            self._cur = ep
            self._cur_count = 0
            self._cur_since = now
            if scanned > 1:
                self.meter.cost_ns("poll_scan", (scanned - 1) * self.cfg.ni_poll_ep_instr)
            return ep
        return None

    def _block_on_peer(self, ep: EndpointState, peer: int, front: bool = False) -> None:
        lst = self._blocked_on_peer.setdefault(peer, deque())
        if ep not in lst:
            if self.sim.trace.enabled:
                self.sim.trace.emit("chan.stall", self.nic_id, ep=ep.ep_id, peer=peer)
            if front:
                lst.appendleft(ep)
            else:
                lst.append(ep)

    def _unblock_peer_waiters(self, peer: int) -> None:
        lst = self._blocked_on_peer.pop(peer, None)
        if not lst:
            return
        for ep in lst:
            if ep.has_sendable():
                self._enqueue_rotation(ep)
        self._work.set()

    def _service_send(self, ep: EndpointState):
        """Process one send descriptor from ``ep``'s ring head (FCFS)."""
        cfg = self.cfg
        msg = ep.send_ring[0]
        ch = self._idle_channel(msg.dst_node)
        if ch is None:  # raced away; revisit later
            self._cur = None
            ep.in_rotation = False
            self._block_on_peer(ep, msg.dst_node)
            return
        ep.send_ring.popleft()
        ep.last_active_ns = self.sim.now
        ep.referenced = True
        self._cur_count += 1
        if ep.tenant is not None:
            ep.tenant.stats.msgs_serviced += 1
        msg.state = MessageState.BOUND
        ep.inflight += 1
        yield self.meter.cost_ns("send", cfg.ni_send_instr)
        self._transmit(ch, msg)
        # post-send bookkeeping happens off the latency path but still
        # occupies the firmware (it contributes to the gap, §6.1)
        yield self.meter.cost_ns("send_post", cfg.ni_send_post_instr)

    # ========================================================== transmission
    def _free_channel(self, peer: int) -> Optional[int]:
        """Index of the channel a send to ``peer`` binds now: the first
        idle one, else the next index while the set is short of
        ``channels_per_pair`` (channels are created as they are used);
        None if every channel is busy.  Creates nothing."""
        chans = self._tx_channels.get(peer, ())
        for i, ch in enumerate(chans):
            if ch.outstanding is None:
                return i
        return len(chans) if len(chans) < self.cfg.channels_per_pair else None

    def _idle_channel(self, peer: int) -> Optional[TxChannel]:
        """The channel :meth:`_free_channel` names, created if new."""
        i = self._free_channel(peer)
        if i is None:
            return None
        chans = self._tx_channels.get(peer)
        if chans is None:
            chans = self._tx_channels[peer] = []
        if i == len(chans):
            chans.append(TxChannel(peer, i, epoch=self.epoch))
        return chans[i]

    def _transmit(self, ch: TxChannel, msg: Message, retrans: bool = False):
        """Put ``msg`` on the wire over ``ch`` and arm its timer."""
        cfg = self.cfg
        ch.outstanding = msg
        msg.transmissions += 1
        if msg.first_tx_ns is None:
            msg.first_tx_ns = self.sim.now
        if retrans:
            self.stats.retransmissions += 1
        tr = self.sim.trace
        if tr.enabled:
            tr.emit(
                "pkt.retransmit" if retrans else "pkt.tx",
                self.nic_id,
                msg=msg.msg_id,
                peer=msg.dst_node,
                ch=ch.index,
                nbytes=msg.payload_bytes,
                enq=msg.enqueued_ns if msg.enqueued_ns is not None else self.sim.now,
            )
        pkt = Packet(
            src_nic=self.nic_id,
            dst_nic=msg.dst_node,
            kind=PacketType.DATA,
            channel=ch.index,
            seq=ch.seq,
            epoch=self.epoch,
            payload_bytes=msg.payload_bytes,
            dst_endpoint=msg.dst_ep,
            src_endpoint=msg.src_ep,
            is_reply=(msg.kind is MsgKind.REPLY),
            is_bulk=msg.is_bulk,
            key=msg.key,
            msg_id=msg.msg_id,
            body=msg.body,
        )
        self.stats.data_sent += 1
        self.stats.bytes_sent += msg.payload_bytes
        if msg.is_bulk and msg.payload_bytes > 0:
            # Stage payload from host memory through NI SRAM: the firmware
            # starts the DMA and moves on; its end sends the packet.
            self.sbus.start(msg.payload_bytes, SbusDma.READ, self._bulk_staged, ch, msg, pkt)
        else:
            self.network.send(pkt)
            self._arm_timer(ch)

    def _bulk_staged(self, ch: TxChannel, msg: Message, pkt: Packet) -> None:
        """The send-side staging DMA ended: put the fragment on the wire."""
        if self.alive and ch.outstanding is msg:  # else freed / reset meanwhile
            self.network.send(pkt)
            self._arm_timer(ch)
        self.sbus.release()

    def _arm_timer(self, ch: TxChannel) -> None:
        msg = ch.outstanding
        timeout = backoff_ns(self.cfg, msg.consecutive_retrans if msg else 0, self.rng)
        if msg is not None and msg.payload_bytes:
            # Bulk packets spend real time in staging DMAs on both ends;
            # stretch the timeout so healthy transfers are not duplicated.
            timeout += round(msg.payload_bytes * self.cfg.bulk_timeout_ns_per_byte)
        deadline = ch.arm(self.sim.now, timeout)
        heapq.heappush(self._timers, (deadline, next(self._tie), ch, ch.timer_gen))
        if self.sim.trace.enabled:
            self.sim.trace.emit("timer.arm", self.nic_id, peer=ch.peer, ch=ch.index,
                                deadline=deadline)
        self._work.set()

    def _arm_timer_backoff(self, ch: TxChannel, consecutive: int) -> None:
        deadline = ch.arm(self.sim.now, backoff_ns(self.cfg, consecutive, self.rng))
        heapq.heappush(self._timers, (deadline, next(self._tie), ch, ch.timer_gen))
        if self.sim.trace.enabled:
            self.sim.trace.emit("timer.arm", self.nic_id, peer=ch.peer, ch=ch.index,
                                deadline=deadline, backoff=consecutive)
        self._work.set()

    # ================================================================ timers
    def _pop_due_timer(self) -> Optional[TxChannel]:
        now = self.sim.now
        while self._timers:
            deadline, _, ch, gen = self._timers[0]
            if gen != ch.timer_gen or ch.deadline_ns != deadline:
                heapq.heappop(self._timers)  # stale
                continue
            if deadline > now:
                return None
            heapq.heappop(self._timers)
            return ch
        return None

    def _pop_due_unbound(self) -> Optional[Message]:
        now = self.sim.now
        while self._unbound:
            deadline, _, msg = self._unbound[0]
            if msg.state is not MessageState.UNBOUND:
                heapq.heappop(self._unbound)
                continue
            if deadline > now:
                return None
            heapq.heappop(self._unbound)
            return msg
        return None

    def _next_deadline(self) -> Optional[int]:
        best: Optional[int] = None
        while self._timers:
            deadline, _, ch, gen = self._timers[0]
            if gen != ch.timer_gen or ch.deadline_ns != deadline:
                heapq.heappop(self._timers)
                continue
            best = deadline
            break
        while self._unbound:
            deadline, _, msg = self._unbound[0]
            if msg.state is not MessageState.UNBOUND:
                heapq.heappop(self._unbound)
                continue
            if best is None or deadline < best:
                best = deadline
            break
        if self._throttled:
            # Wake when the earliest rate-limited endpoint's tenant
            # bucket has refilled (spurious wakes are harmless).
            ready = self._throttled[0][0]
            if best is None or ready < best:
                best = ready
        return best

    def _handle_timer(self, ch: TxChannel):
        """Retransmission deadline expired on a channel."""
        msg = ch.outstanding
        ch.disarm()
        if self.sim.trace.enabled:
            self.sim.trace.emit("timer.fire", self.nic_id, peer=ch.peer, ch=ch.index,
                                msg=msg.msg_id if msg else None)
        if msg is None:
            return
        if self.sim.now - msg.first_tx_ns >= self.cfg.dead_timeout_ns:
            # Prolonged absence of acknowledgments: unrecoverable transport
            # condition; return the message to its sender (§3.2, §5.1).
            ch.outstanding = None
            self._resolve_returned(msg, "timeout")
            self._feed_channel(ch)
            return
        msg.consecutive_retrans += 1
        if msg.consecutive_retrans > self.cfg.max_consecutive_retrans:
            yield from self._unbind(ch, msg)
            return
        yield self.meter.cost_ns("retrans", self.cfg.ni_send_instr)
        self._transmit(ch, msg, retrans=True)

    def _unbind(self, ch: TxChannel, msg: Message):
        """Free the channel after bounded consecutive retransmissions."""
        ch.outstanding = None
        msg.state = MessageState.UNBOUND
        msg.consecutive_retrans = 0
        self.stats.unbinds += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("chan.unbind", self.nic_id, msg=msg.msg_id,
                                peer=ch.peer, ch=ch.index)
        self._unbound_by_id[msg.msg_id] = msg
        jitter = 0.5 + self.rng.random()
        deadline = self.sim.now + max(1_000, round(self.cfg.rebind_delay_us * 1_000 * jitter))
        heapq.heappush(self._unbound, (deadline, next(self._tie), msg))
        yield self.meter.cost_ns("unbind", self.cfg.ni_poll_ep_instr * 4)
        self._feed_channel(ch)
        self._work.set()

    def _try_rebind(self, msg: Message):
        """An unbound message's retry deadline arrived: reacquire a channel."""
        if msg.state is not MessageState.UNBOUND:
            return
        if self.sim.now - msg.first_tx_ns >= self.cfg.dead_timeout_ns:
            self._unbound_by_id.pop(msg.msg_id, None)
            self._resolve_returned(msg, "timeout")
            return
        ch = self._idle_channel(msg.dst_node)
        if ch is None:
            jitter = 0.5 + self.rng.random()
            deadline = self.sim.now + max(1_000, round(self.cfg.rebind_delay_us * 1_000 * jitter))
            heapq.heappush(self._unbound, (deadline, next(self._tie), msg))
            return
        self._unbound_by_id.pop(msg.msg_id, None)
        msg.state = MessageState.BOUND
        self.stats.rebinds += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("chan.rebind", self.nic_id, msg=msg.msg_id,
                                peer=msg.dst_node, ch=ch.index)
        yield self.meter.cost_ns("rebind", self.cfg.ni_send_instr)
        self._transmit(ch, msg, retrans=True)

    def _feed_channel(self, ch: TxChannel) -> None:
        """A channel went idle: wake ring-blocked endpoints for its peer."""
        self._unblock_peer_waiters(ch.peer)

    # ================================================================ receive
    def _handle_rx(self, pkt: Packet):
        cfg = self.cfg
        if pkt.corrupted:
            # CRC check fails; drop silently, sender's timer recovers it.
            self.stats.crc_drops += 1
            if self.sim.trace.enabled:
                self.sim.trace.emit("pkt.crc_drop", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic)
            yield self.meter.cost_ns("crc_drop", cfg.ni_poll_ep_instr)
            if pkt.kind is not PacketType.DATA:
                pkt.recycle()
            return
        if pkt.kind is PacketType.DATA:
            yield from self._handle_data(pkt)
        elif pkt.kind is PacketType.ACK:
            yield from self._handle_ack(pkt)
            pkt.recycle()
        elif pkt.kind is PacketType.NACK:
            yield from self._handle_nack(pkt)
            pkt.recycle()
        elif pkt.kind is PacketType.COLL:
            yield from self.coll.handle_rx(pkt)
            pkt.recycle()

    def _handle_data(self, pkt: Packet):
        cfg = self.cfg
        # Receive processing plus the defensive error checking added by
        # virtualization (§6.1): metered separately, slept as one event —
        # nothing observes the boundary between the two costs.
        yield (self.meter.cost_ns("recv", cfg.ni_recv_instr)
               + self.meter.cost_ns("errcheck", cfg.ni_errcheck_instr))
        self.stats.data_recv += 1
        self.stats.bytes_recv += pkt.payload_bytes
        if self.sim.trace.enabled:
            self.sim.trace.emit("pkt.rx", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic,
                                ch=pkt.channel, nbytes=pkt.payload_bytes)

        peer = self._rx_peers.get(pkt.src_nic)
        if peer is None:
            peer = self._rx_peers[pkt.src_nic] = RxPeerState(
                pkt.src_nic, window=cfg.dup_window
            )
        peer.observe_epoch(pkt.epoch)

        ep = self.endpoints.get(pkt.dst_endpoint)
        if ep is None or ep.residency is Residency.FREED:
            yield from self._send_nack(pkt, NackReason.NO_ENDPOINT)
            return
        if pkt.key != ep.tag:
            # The receiving interface verifies the key (§3.1).
            yield from self._send_nack(pkt, NackReason.BAD_KEY)
            return
        if not ep.resident:
            yield from self._send_nack(pkt, NackReason.NOT_RESIDENT)
            self._request_make_resident(ep)
            return
        if peer.is_duplicate(pkt.msg_id):
            # Copy of something already delivered (retransmission across an
            # unbind/rebind): re-acknowledge, do not redeliver.
            self.stats.dup_reacks += 1
            yield from self._send_ack(pkt)
            return
        if pkt.msg_id in self._rx_inflight:
            # A copy whose first arrival is still staging through the SBus:
            # drop silently; the in-progress delivery will be acknowledged.
            self.stats.dup_reacks += 1
            return
        if not ep.recv_room(pkt.is_reply):
            yield from self._send_nack(pkt, NackReason.RECV_OVERRUN)
            return
        if pkt.is_bulk and pkt.payload_bytes > 0:
            # Move the payload to the host memory region behind the
            # endpoint; the ACK means "written into the destination
            # endpoint" (§5.1) so it waits for the DMA.  The queue slot is
            # reserved now so concurrent arrivals respect the bound.
            self._rx_inflight.add(pkt.msg_id)
            if pkt.is_reply:
                ep.bulk_reserved_rep += 1
            else:
                ep.bulk_reserved_req += 1
            self.sbus.start(pkt.payload_bytes, SbusDma.WRITE, self._bulk_written, ep, peer, pkt)
        else:
            yield from self._finish_delivery(ep, peer, pkt)

    def _bulk_written(self, *args) -> None:
        """A bulk payload reached host memory: queue its completion.

        The engine stays held until the dispatch loop has run
        :meth:`_bulk_complete` (the real LANai programs the next transfer
        only after handling the previous one's completion) — this is the
        ~12 us per-packet overhead behind Figure 4's 43.9-of-46.8 MB/s
        delivered bandwidth.
        """
        self._internal_q.append((self._bulk_complete, args))
        self._work.set()

    def _bulk_complete(self, ep: EndpointState, peer: RxPeerState, pkt: Packet):
        if pkt.is_reply:
            ep.bulk_reserved_rep = max(0, ep.bulk_reserved_rep - 1)
        else:
            ep.bulk_reserved_req = max(0, ep.bulk_reserved_req - 1)
        self._rx_inflight.discard(pkt.msg_id)
        yield self.meter.cost_ns("bulk_complete", self.cfg.ni_bulk_complete_instr)
        if self.alive and ep.resident:
            yield from self._finish_delivery(ep, peer, pkt)
        self.sbus.release()

    def _finish_delivery(self, ep: EndpointState, peer: RxPeerState, pkt: Packet):
        arrived = Message(
            src_node=pkt.src_nic,
            src_ep=pkt.src_endpoint,
            dst_node=self.nic_id,
            dst_ep=ep.ep_id,
            key=pkt.key,
            kind=MsgKind.REPLY if pkt.is_reply else MsgKind.REQUEST,
            payload_bytes=pkt.payload_bytes,
            is_bulk=pkt.is_bulk,
            body=pkt.body,
            msg_id=pkt.msg_id,
        )
        arrived.state = MessageState.DELIVERED
        arrived.delivered_ns = self.sim.now
        q = ep.recv_replies if pkt.is_reply else ep.recv_requests
        was_empty = not q
        q.append(arrived)
        if ep.waiter is not None:
            ep.waiter.signal()
        peer.record_delivery(pkt.msg_id)
        ep.referenced = True  # receive activity counts for clock replacement
        self.stats.deliveries += 1
        tr = self.sim.trace
        if tr.enabled:
            tr.emit("msg.deliver", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic,
                    ep=ep.ep_id, nbytes=pkt.payload_bytes)
        yield from self._send_ack(pkt)
        if was_empty and "recv" in ep.event_mask:
            self._notify_driver("event", ep, detail="recv")

    def _send_ack(self, pkt: Packet):
        yield self.meter.cost_ns("ack_gen", self.cfg.ni_ack_gen_instr)
        self.stats.acks_sent += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("ack.tx", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic)
        self.network.send(
            Packet.alloc(
                self.nic_id,
                pkt.src_nic,
                PacketType.ACK,
                channel=pkt.channel,
                seq=pkt.seq,
                epoch=pkt.epoch,
                msg_id=pkt.msg_id,
            )
        )

    def _send_nack(self, pkt: Packet, reason: NackReason):
        yield self.meter.cost_ns("nack_gen", self.cfg.ni_ack_gen_instr)
        self.stats.count_nack(reason)
        if self.sim.trace.enabled:
            self.sim.trace.emit("nack.tx", self.nic_id, msg=pkt.msg_id,
                                peer=pkt.src_nic, reason=reason.name)
        self.network.send(
            Packet.alloc(
                self.nic_id,
                pkt.src_nic,
                PacketType.NACK,
                channel=pkt.channel,
                seq=pkt.seq,
                epoch=pkt.epoch,
                msg_id=pkt.msg_id,
                nack_reason=reason,
            )
        )

    # -------------------------------------------------- ACK/NACK processing
    def _match_channel(self, pkt: Packet) -> Optional[TxChannel]:
        chans = self._tx_channels.get(pkt.src_nic)
        if chans is None or pkt.channel >= len(chans):
            return None
        ch = chans[pkt.channel]
        if pkt.epoch != self.epoch:
            return None  # ack for a pre-reboot transmission
        if ch.outstanding is None or ch.outstanding.msg_id != pkt.msg_id:
            return None
        return ch

    def _handle_ack(self, pkt: Packet):
        yield self.meter.cost_ns("ack_proc", self.cfg.ni_ack_proc_instr)
        self.stats.acks_recv += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("ack.rx", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic,
                                ch=pkt.channel)
        ch = self._match_channel(pkt)
        if ch is not None:
            msg = ch.outstanding
            ch.outstanding = None
            ch.seq ^= 1
            ch.disarm()
            self._resolve_delivered(msg)
            self._feed_channel(ch)
            return
        # An unbound message may be acknowledged by a late copy (§5.3's
        # copy accounting): resolve it wherever it is now.
        msg = self._unbound_by_id.pop(pkt.msg_id, None)
        if msg is not None:
            self._resolve_delivered(msg)
        else:
            self.stats.stale_acks += 1

    def _handle_nack(self, pkt: Packet):
        cfg = self.cfg
        yield self.meter.cost_ns("nack_proc", cfg.ni_nack_proc_instr)
        self.stats.nacks_recv += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("nack.rx", self.nic_id, msg=pkt.msg_id, peer=pkt.src_nic,
                                reason=pkt.nack_reason.name if pkt.nack_reason else None)
        ch = self._match_channel(pkt)
        if ch is None:
            return
        msg = ch.outstanding
        reason = pkt.nack_reason
        if reason in (NackReason.BAD_KEY, NackReason.NO_ENDPOINT):
            # Serious, non-transient: return to sender (§3.2).
            ch.outstanding = None
            ch.disarm()
            self._resolve_returned(msg, reason)
            self._feed_channel(ch)
            return
        # Transient (not resident / queue overrun / out of sync): retry
        # later with backoff; the channel stays bound to the message.
        msg.consecutive_retrans += 1
        if msg.consecutive_retrans > cfg.max_consecutive_retrans:
            yield from self._unbind(ch, msg)
            return
        if reason is NackReason.RECV_OVERRUN:
            # Receiver-paced condition: the queue drains at the host's
            # consumption rate, so retry promptly rather than backing off
            # exponentially — this retransmission pressure is Figure 6b's
            # 75K->60K drop once credits stop preventing overruns.  Note
            # these retries are self-pacing: a copy can only be NACKed
            # again after the receiver actually processed it.
            self._arm_fixed_retry(ch, cfg.overrun_retry_us)
        elif reason is NackReason.NOT_RESIDENT:
            # Paced to the re-mapping latency (Section 4.2).
            self._arm_fixed_retry(ch, cfg.not_resident_retry_us)
        else:
            self._arm_timer_backoff(ch, msg.consecutive_retrans)

    def _arm_fixed_retry(self, ch: TxChannel, retry_us: float) -> None:
        jitter = 0.5 + self.rng.random()
        retry_ns = max(1_000, round(retry_us * 1_000 * jitter))
        deadline = ch.arm(self.sim.now, retry_ns)
        heapq.heappush(self._timers, (deadline, next(self._tie), ch, ch.timer_gen))
        self._work.set()

    # ============================================================ resolution
    def _resolve_delivered(self, msg: Message) -> None:
        msg.state = MessageState.DELIVERED
        msg.delivered_ns = self.sim.now
        self._finish_inflight(msg)
        msg.resolve(True)

    def _resolve_returned(self, msg: Message, reason) -> None:
        msg.state = MessageState.RETURNED
        msg.return_reason = reason
        self.stats.returns += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("msg.return", self.nic_id, msg=msg.msg_id,
                                peer=msg.dst_node,
                                reason=getattr(reason, "name", str(reason)))
        self._finish_inflight(msg)
        ep = self.endpoints.get(msg.src_ep)
        if ep is not None and ep.residency is not Residency.FREED:
            ep.returned.append(msg)
            if ep.waiter is not None:
                ep.waiter.signal()
            if "returned" in ep.event_mask:
                self._notify_driver("event", ep, detail="returned")
        msg.resolve(False)

    def _finish_inflight(self, msg: Message) -> None:
        ep = self.endpoints.get(msg.src_ep)
        if ep is not None:
            ep.inflight = max(0, ep.inflight - 1)
        self._work.set()  # may complete a pending unload

    # ======================================================== driver protocol
    def _notify_driver(self, kind: str, ep: EndpointState, detail=None) -> None:
        note = NicNotify(
            kind=kind,
            ep_id=ep.ep_id,
            generation=ep.generation,
            clock=self.clock.tick(),
            detail=detail,
        )
        if kind == "make_resident":
            self.stats.make_resident_notifies += 1
        self.to_driver.try_put(note)

    def _request_make_resident(self, ep: EndpointState) -> None:
        """Message arrived for a non-resident endpoint (Section 4.2)."""
        if getattr(ep, "mr_requested", False) or ep.transition:
            return
        ep.mr_requested = True
        self._notify_driver("make_resident", ep)

    def _handle_driver_op(self, op: DriverOp):
        cfg = self.cfg
        self.clock.observe(op.clock)
        self.stats.driver_ops += 1
        if self.sim.trace.enabled:
            self.sim.trace.emit("drv.op", self.nic_id, op=op.op, ep=op.ep.ep_id)
        yield self.meter.cost_ns("driver_op", cfg.ni_driver_op_instr)
        if op.op == "alloc":
            self.endpoints[op.ep.ep_id] = op.ep
            op.done.trigger(None)
        elif op.op == "free":
            ep = op.ep
            # Descriptors still in the send ring were accepted from the
            # application but never bound to a channel; freeing the
            # endpoint (process exit/kill, Section 4.2) must resolve them
            # as returned-to-sender rather than leak them — the delivery
            # contract says every accepted message ends DELIVERED or
            # RETURNED (Section 3.2).  Bound/unbound messages were already
            # drained by the quiesce that precedes the free.
            while ep.send_ring:
                self._resolve_returned(ep.send_ring.popleft(), "endpoint_freed")
            self.endpoints.pop(ep.ep_id, None)
            self._vacate(ep, ep.frame)
            op.done.trigger(None)
        elif op.op == "load":
            self._start_load(op)
        elif op.op == "unload":
            op.ep.quiescing = True
            self._pending_unloads.append((op.ep, op))
            self._work.set()
        else:
            op.done.fail(ValueError(f"unknown driver op {op.op!r}"))

    def _start_load(self, op: DriverOp) -> None:
        """Move an endpoint image from host memory into an NI frame."""
        ep, frame = op.ep, op.frame
        frame_rows = self.table.frame_rows
        if frame is None or frame_rows[frame] >= 0:
            op.done.fail(RuntimeError(f"frame {frame} not free for load"))
            return
        frame_rows[frame] = ep.row  # reserve before the DMA
        self.sbus.start(self.cfg.frame_bytes, SbusDma.READ, self._load_done, op, self.sim.now)

    def _load_done(self, op: DriverOp, load_start: int) -> None:
        # Frame DMAs free the engine at once: no completion work holds it,
        # and nothing below schedules past this instant.
        self.sbus.release()
        ep, frame = op.ep, op.frame
        if ep.residency is Residency.FREED or self.endpoints.get(ep.ep_id) is not ep:
            # The driver freed the endpoint while the load DMA was in
            # flight (the "free" op saw ep.frame still unset, so it could
            # not release the reservation).  Completing the load would
            # resurrect a freed endpoint into a frame — release the
            # reservation instead and report completion.
            self._vacate(ep, frame)
            ep.transition = False
            self._work.set()
            op.done.trigger(None)
            return
        if self.sim.trace.enabled:
            self.sim.trace.emit("ep.load", self.nic_id, ep=ep.ep_id, frame=frame,
                                dur_ns=self.sim.now - load_start)
        ep.frame = frame
        ep.residency = Residency.ONNIC_RW
        ep.referenced = True  # fresh loads start with a second chance
        ep.mr_requested = False
        ep.transition = False
        if ep.send_ring:
            self._enqueue_rotation(ep)
        self._work.set()
        op.done.trigger(None)

    def _check_unloads(self) -> None:
        """Start unload DMAs for quiescent endpoints (Section 5.3)."""
        if not self._pending_unloads:
            return
        still = []
        for ep, op in self._pending_unloads:
            if ep.inflight == 0:
                self.sbus.start(self.cfg.frame_bytes, SbusDma.WRITE,
                                self._unload_done, ep, op, self.sim.now)
            else:
                still.append((ep, op))
        self._pending_unloads = still

    def _unload_done(self, ep: EndpointState, op: DriverOp, unload_start: int) -> None:
        """The frame image is back in host memory: vacate the frame."""
        self.sbus.release()
        if self.sim.trace.enabled:
            self.sim.trace.emit("ep.unload", self.nic_id, ep=ep.ep_id, frame=ep.frame,
                                dur_ns=self.sim.now - unload_start)
        self._vacate(ep, ep.frame)
        ep.frame = None
        ep.residency = Residency.ONHOST_RO
        ep.quiescing = False
        ep.in_rotation = False
        op.done.trigger(None)
