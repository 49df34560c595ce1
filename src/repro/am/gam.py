"""GAM: the first-generation Active Messages baseline (Sections 2, 6.1).

"GAM refers to a single-endpoint interface with none of the necessary
enhancements of Section 3" (Figure 3's caption): one communication port
per node, usable by exactly one prearranged parallel program, no
protection keys, no endpoint paging, and no transport protocol — the
interconnect is assumed perfectly reliable, so there are no
acknowledgments, timers, or retransmissions.  Its firmware is also
simpler: fewer instructions per message (smaller descriptors), but bulk
transfers fragment at 4 KB and the firmware does *not* pipeline descriptor
processing with the store-and-forward staging DMAs, which is why it
delivers only ~38 MB/s where AM-II reaches ~44 (Figure 4).

Flow control is the classic request/reply window: every request handler
replies (the library replies when it does not), and at most ``window``
requests per destination are outstanding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

from ..cluster.config import ClusterConfig
from ..hw.host import Cpu
from ..hw.lanai import LanaiMeter
from ..hw.sbus import SbusDma
from ..myrinet.fault import FaultInjector
from ..myrinet.network import Network
from ..myrinet.packet import Packet, PacketType
from ..osim.threads import Thread
from ..sim.core import Simulator
from ..sim.resources import Gate
from ..sim.rng import RngStreams
from .endpoint import poll_until

__all__ = ["GamNic", "GamEndpoint", "GamNode", "GamCluster"]

#: outstanding requests per destination (GAM's fixed window)
GAM_WINDOW = 16


@dataclass
class GamStats:
    requests_sent: int = 0
    replies_sent: int = 0
    requests_handled: int = 0
    replies_handled: int = 0
    bulk_bytes_sent: int = 0
    window_stalls: int = 0


class _GamMsg:
    __slots__ = ("dst", "is_reply", "nbytes", "is_bulk", "body")

    def __init__(self, dst: int, is_reply: bool, nbytes: int, is_bulk: bool, body: Any):
        self.dst = dst
        self.is_reply = is_reply
        self.nbytes = nbytes
        self.is_bulk = is_bulk
        self.body = body


class GamNic:
    """Single-endpoint NI firmware: no protocol, no virtualization."""

    def __init__(self, sim: Simulator, cfg: ClusterConfig, nic_id: int, network: Network):
        self.sim = sim
        self.cfg = cfg
        self.nic_id = nic_id
        self.network = network
        network.attach(nic_id, self._on_wire_rx)
        self.sbus = SbusDma(sim, cfg, name=f"gam{nic_id}.sbus")
        self.meter = LanaiMeter(cfg)
        self._rx_q: Deque[Packet] = deque()
        self._tx_q: Deque[_GamMsg] = deque()
        #: delivered messages awaiting host consumption
        self.recv_q: Deque[_GamMsg] = deque()
        self._work = Gate(sim, name=f"gam{nic_id}.work")
        self.sim.spawn(self._loop(), name=f"gam{nic_id}.fw")

    def host_enqueue_send(self, msg: _GamMsg) -> bool:
        if len(self._tx_q) >= self.cfg.send_ring_depth:
            return False
        self._tx_q.append(msg)
        self._work.set()
        return True

    def host_poll_recv(self) -> Optional[_GamMsg]:
        if self.recv_q:
            return self.recv_q.popleft()
        return None

    def _on_wire_rx(self, pkt: Packet) -> None:
        self._rx_q.append(pkt)
        self._work.set()

    def _loop(self):
        cfg = self.cfg
        while True:
            self._work.clear()
            if self._rx_q:
                pkt = self._rx_q.popleft()
                yield from self._recv(pkt)
            elif self._tx_q:
                msg = self._tx_q.popleft()
                yield from self._send(msg)
            else:
                yield self._work.wait()

    def _send(self, msg: _GamMsg):
        cfg = self.cfg
        yield self.meter.cost_ns("send", cfg.gam_ni_send_instr)
        if msg.is_bulk and msg.nbytes > 0:
            # No pipelining: the dispatch loop blocks on the staging DMA.
            yield from self.sbus.transfer(msg.nbytes, SbusDma.READ)
        pkt = Packet(
            src_nic=self.nic_id,
            dst_nic=msg.dst,
            kind=PacketType.DATA,
            payload_bytes=msg.nbytes,
            is_reply=msg.is_reply,
            is_bulk=msg.is_bulk,
            body=msg.body,
        )
        self.network.send(pkt)
        yield self.meter.cost_ns("send_post", cfg.gam_ni_send_post_instr)

    def _recv(self, pkt: Packet):
        cfg = self.cfg
        yield self.meter.cost_ns("recv", cfg.gam_ni_recv_instr)
        if pkt.is_bulk and pkt.payload_bytes > 0:
            # Store-and-forward penalty + blocking DMA to host memory.
            yield round(cfg.gam_bulk_extra_us * 1_000)
            yield from self.sbus.transfer(pkt.payload_bytes, SbusDma.WRITE)
        self.recv_q.append(
            _GamMsg(pkt.src_nic, pkt.is_reply, pkt.payload_bytes, pkt.is_bulk, pkt.body)
        )
        yield self.meter.cost_ns("recv_post", cfg.gam_ni_recv_post_instr)


class GamEndpoint:
    """Host-side GAM interface: request/reply with a fixed window."""

    def __init__(self, node: "GamNode"):
        self.node = node
        self.cfg = node.cfg
        self.nic = node.nic
        self.stats = GamStats()
        self._window: dict[int, int] = {}
        self._reassembly: dict[int, list] = {}
        self._next_tid = 0

    # ----------------------------------------------------------------- send
    def request(self, thr: Thread, dst: int, handler: Optional[Callable], *args: Any, nbytes: int = 0):
        """Generator: issue a request (fragmenting bulk at 4 KB)."""
        cfg = self.cfg
        is_bulk = nbytes > cfg.small_payload_max_bytes
        mtu = cfg.gam_mtu_bytes
        nfrags = max(1, -(-nbytes // mtu)) if is_bulk else 1
        self._next_tid += 1
        tid = self._next_tid
        sent = 0
        for frag in range(nfrags):
            frag_bytes = min(mtu, nbytes - sent) if is_bulk else nbytes
            sent += frag_bytes
            yield from poll_until(thr, lambda: self._window_ready(dst), self,
                                  period=cfg.poll_host_ns, limit=4)
            self._window[dst] = self._window.get(dst, 0) + 1
            meta = {"frag": (tid, frag, nfrags) if is_bulk else None, "auto": False}
            msg = _GamMsg(dst, False, frag_bytes, is_bulk, (handler, args, meta))
            yield from self._enqueue(thr, msg)
            self.stats.requests_sent += 1
            if is_bulk:
                self.stats.bulk_bytes_sent += frag_bytes

    def _window_ready(self, dst: int) -> bool:
        """Window-stall predicate of :meth:`request` (counts each stall)."""
        if self._window.get(dst, 0) < GAM_WINDOW:
            return True
        self.stats.window_stalls += 1
        return False

    def _enqueue(self, thr: Thread, msg: _GamMsg):
        while True:
            yield from thr.compute(self.cfg.gam_host_send_overhead_ns)
            if self.nic.host_enqueue_send(msg):
                return
            yield from self.poll(thr, limit=4)

    # -------------------------------------------------------------- receive
    def poll(self, thr: Thread, limit: int = 8):
        """Generator: consume arrived messages; returns count processed."""
        yield from thr.compute(self.cfg.poll_resident_ns)
        processed = 0
        while processed < limit:
            msg = self.nic.host_poll_recv()
            if msg is None:
                break
            yield from thr.compute(self.cfg.gam_host_recv_overhead_ns)
            handler, args, meta = msg.body
            if msg.is_reply:
                self.stats.replies_handled += 1
                src = meta.get("reply_src")
                if src is not None and self._window.get(src, 0) > 0:
                    self._window[src] -= 1
                if handler is not None:
                    handler(_GamToken(self, src, 0), *args)
            else:
                self.stats.requests_handled += 1
                frag = meta.get("frag")
                run_handler = True
                nbytes = msg.nbytes
                if frag is not None:
                    tid, _i, n = frag
                    slot = self._reassembly.setdefault((msg.dst, tid), [0, 0])
                    slot[0] += 1
                    slot[1] += msg.nbytes
                    if slot[0] < n:
                        run_handler = False
                    else:
                        nbytes = slot[1]
                        del self._reassembly[(msg.dst, tid)]
                token = _GamToken(self, msg.dst, nbytes)
                if run_handler and handler is not None:
                    cost = handler(token, *args)
                    if isinstance(cost, int) and cost:
                        yield from thr.compute(cost)
                # reply (explicit or library credit reply)
                if token._reply_spec is not None:
                    rhandler, rargs, rnbytes = token._reply_spec
                else:
                    rhandler, rargs, rnbytes = None, (), 0
                rmeta = {"reply_src": self.node.node_id, "auto": token._reply_spec is None}
                rmsg = _GamMsg(msg.dst, True, rnbytes, rnbytes > self.cfg.small_payload_max_bytes, (rhandler, rargs, rmeta))
                self.stats.replies_sent += 1
                yield from self._enqueue(thr, rmsg)
            processed += 1
        return processed


class _GamToken:
    __slots__ = ("endpoint", "src", "nbytes", "_reply_spec")

    def __init__(self, endpoint: GamEndpoint, src: int, nbytes: int):
        self.endpoint = endpoint
        self.src = src
        self.nbytes = nbytes
        self._reply_spec: Optional[tuple] = None

    def reply(self, handler: Optional[Callable], *args: Any, nbytes: int = 0) -> None:
        self._reply_spec = (handler, args, nbytes)


class GamNode:
    """One workstation in a GAM-era cluster (no OS endpoint management)."""

    def __init__(self, sim: Simulator, cfg: ClusterConfig, node_id: int, network: Network):
        self.sim = sim
        self.cfg = cfg
        self.node_id = node_id
        self.cpu = Cpu(sim, cfg.cpu_quantum_ns, cfg.context_switch_ns, name=f"gcpu{node_id}")
        self.nic = GamNic(sim, cfg, node_id, network)
        self.endpoint = GamEndpoint(self)

    def spawn_thread(self, body, name: str = "") -> Thread:
        return Thread(self.sim, self.cpu, body, name=name or f"gam{self.node_id}")


class GamCluster:
    """A cluster running the first-generation layer (Figure 3's 'GAM')."""

    def __init__(self, cfg: Optional[ClusterConfig] = None, **overrides):
        if cfg is None:
            cfg = ClusterConfig()
        if overrides:
            cfg = cfg.with_(**overrides)
        cfg.validate()
        self.cfg = cfg
        self.sim = Simulator()
        self.rngs = RngStreams(cfg.seed)
        self.network = Network(self.sim, cfg, self.rngs)
        self.nodes = [GamNode(self.sim, cfg, i, self.network) for i in range(cfg.num_hosts)]
        self.faults = FaultInjector(self.sim, self.network)

    def node(self, i: int) -> GamNode:
        return self.nodes[i]

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)
