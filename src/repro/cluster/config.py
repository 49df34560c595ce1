"""Cluster configuration: every calibration constant in one place.

The paper's testbed (Section 2): 100 x 167 MHz UltraSPARC-1, Solaris 2.6,
Myrinet with 25 switches / 185 links in a fat-tree-like topology, ~300 ns
cut-through switch latency, 1.2 Gb/s bidirectional ports, LANai 4.3 NICs
(37.5 MHz embedded CPU, 1 MB SRAM, send/receive network DMA engines and one
SBus DMA engine).  The constants below parameterize our discrete-event
models of those parts; defaults are calibrated so the microbenchmarks land
near the paper's measured numbers (Figures 3 and 4) and the macrobenchmark
*shapes* (Figures 5-7) follow.

Derived quantities (instruction times, byte times) are exposed as
properties so a config edit stays consistent everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..sim import ENGINE_NAMES
from ..sim.core import NS_PER_S

__all__ = ["ClusterConfig", "DEFAULT_CONFIG"]


@dataclass
class ClusterConfig:
    # ------------------------------------------------------------- topology
    num_hosts: int = 100
    #: hosts per leaf switch in the fat-tree builder (Myrinet 8-port
    #: switches: 4 host ports + 4 up ports, paper-era NOW configuration)
    switch_radix: int = 8
    seed: int = 1999

    # ----------------------------------------------------------------- wire
    #: link bandwidth, bits per second per direction (1.2 Gb/s, Section 2)
    link_bandwidth_bps: float = 1.2e9
    #: per-switch cut-through latency (≈300 ns, Section 2)
    switch_latency_ns: int = 300
    #: cable propagation + NI-to-wire latency per hop endpoint
    cable_latency_ns: int = 40
    #: link-level packet header bytes (route, CRC, type, channel, seq,
    #: 32-bit timestamp -- Section 5.1; the timestamp is sized, not modelled)
    packet_header_bytes: int = 24
    #: maximum transmission unit for AM-II (64 max-size sends ≈ 4 ms, §5.2)
    mtu_bytes: int = 8192

    # ----------------------------------------------------------------- SBus
    #: asymmetric DMA rates (Figure 4): NI writing host memory tops out at
    #: 46.8 MB/s; NI reading host memory is a little faster.
    sbus_write_mb_s: float = 46.8
    sbus_read_mb_s: float = 52.0
    #: fixed startup cost per DMA transfer
    sbus_dma_startup_ns: int = 1_000

    # ---------------------------------------------------------------- LANai
    #: LANai 4.3 clock (37.5 MHz => 26.67 ns per instruction)
    lanai_mhz: float = 37.5
    #: instruction budgets for firmware operations (calibrated; Figure 3).
    #: The per-direction occupancy of a small message is ~6.4 us, so a
    #: request+reply pair costs ~12.8 us per NI -- which is simultaneously
    #: the measured LogP gap and the 78K msg/s server ceiling of Figure 6.
    #: Latency-path cost of pushing one small message to the wire:
    ni_send_instr: int = 94
    #: post-send bookkeeping (timer arm, ring advance) off the latency path:
    ni_send_post_instr: int = 82
    #: latency-path cost of receiving + delivering one small message:
    ni_recv_instr: int = 112
    #: post-receive bookkeeping plus ACK generation:
    ni_ack_gen_instr: int = 90
    #: processing an incoming ACK (timer cancel, descriptor free, credit):
    ni_ack_proc_instr: int = 64
    #: processing an incoming NACK:
    ni_nack_proc_instr: int = 70
    #: bulk receive completion (reprogramming the staging DMA, descriptor
    #: completion) charged while the SBus engine is still held — the
    #: per-packet overhead behind Figure 4's 93%-of-hardware ceiling
    ni_bulk_complete_instr: int = 210
    #: extra defensive error checking of virtualization (~1.1 us on L and g,
    #: Section 6.1); charged on the receive latency path.
    ni_errcheck_instr: int = 38
    #: per-descriptor cost of scanning an empty/ineligible endpoint
    ni_poll_ep_instr: int = 14
    #: NI receive staging FIFO (packets the receive DMA engine has pulled
    #: off the wire into SRAM awaiting firmware dispatch).  Generous: the
    #: engine drains the wire at link speed, and sender populations are
    #: credit-bounded; only a pathological flood fills it, at which point
    #: link-level backpressure holds packets in the network ("congestion
    #: rapidly spreads", Section 2)
    ni_rx_fifo_packets: int = 4096
    #: servicing one driver (system-endpoint) request
    ni_driver_op_instr: int = 220

    # ----------------------------------------------------- NI collectives
    #: firmware-forwarded collectives (barrier/broadcast/reduce, Yu et al.
    #: style): the host posts one descriptor to its local NI and the
    #: spanning tree is walked NI-to-NI without host round-trips.  Each
    #: firmware step charges an instruction budget against the NI's LogP
    #: occupancy, like every other firmware operation.
    #: Host-initiated collective setup (descriptor parse, tree lookup,
    #: first up/down packet launch):
    ni_coll_init_instr: int = 150
    #: forwarding one up-phase (towards-root) collective packet:
    ni_coll_up_instr: int = 120
    #: forwarding one down-phase (fan-out) collective packet:
    ni_coll_down_instr: int = 96
    #: folding one child contribution into the partial reduce value:
    ni_coll_combine_instr: int = 28
    #: which tree walks the collective: "host" (lib.mpi point-to-point
    #: trees, the baseline) or "firmware" (k-ary NI spanning tree)
    collective_strategy: str = "host"
    #: interior fan-out of the firmware spanning tree
    coll_fanout: int = 4
    #: host-side completion timeout: collective packets are fire-and-forget
    #: (no stop-and-wait channel), so a lost packet or crashed tree node
    #: surfaces as a clean CollectiveTimeout rather than a deadlock
    coll_timeout_ms: float = 50.0

    # --------------------------------------------------- first-gen AM (GAM)
    #: the single-endpoint baseline skips the transport protocol entirely;
    #: per-direction occupancy ~2.9 us, so request+reply gap ~5.8 us and
    #: the virtualization gap ratio lands at the paper's 2.21x.
    gam_ni_send_instr: int = 70
    gam_ni_send_post_instr: int = 39
    gam_ni_recv_instr: int = 85
    gam_ni_recv_post_instr: int = 24
    #: GAM fragments bulk transfers at 4 KB and does not pipeline descriptor
    #: processing with the store-and-forward staging delay (Section 6.1)
    gam_mtu_bytes: int = 4096
    gam_bulk_extra_us: float = 8.0

    # ----------------------------------------------------------------- host
    #: LogP send overhead Os: writing an AM-II message descriptor to a
    #: resident endpoint with PIO (bigger descriptors than GAM, Section 6.1)
    host_send_overhead_ns: int = 2_400
    gam_host_send_overhead_ns: int = 1_600
    #: LogP receive overhead Or: AM-II reads the whole descriptor with one
    #: VIS block load; GAM reads word-by-word (Section 6.1)
    host_recv_overhead_ns: int = 2_400
    gam_host_recv_overhead_ns: int = 3_200
    #: polling an endpoint that is resident (uncacheable NI SRAM read) vs
    #: non-resident (cacheable host memory) -- drives Figure 6 ST-96
    poll_resident_ns: int = 800
    poll_host_ns: int = 80
    #: writing a descriptor into a non-resident (on-host r/w) endpoint
    host_write_nonresident_ns: int = 300
    #: mutex acquire+release around shared-endpoint operations (§3.3)
    shared_ep_lock_ns: int = 400
    #: scheduler time slice (Solaris TS class, order 10 ms)
    cpu_quantum_ns: int = 10_000_000
    #: context switch cost
    context_switch_ns: int = 10_000
    #: thread wakeup via event mask notification (NI -> driver -> cv signal)
    event_notify_ns: int = 25_000
    #: page-fault trap cost (endpoint write fault, Section 4.2)
    host_fault_us: float = 18.0
    #: paging a swapped endpoint back from disk (on-disk state, Figure 2)
    disk_pagein_us: float = 6_000.0
    #: allocating an endpoint (segment creation, driver registration)
    ep_alloc_us: float = 250.0
    #: driver proxy thread handling one NI notification (software fault)
    proxy_fault_us: float = 15.0
    #: two-phase waiting: spin this long before blocking (implicit
    #: co-scheduling, Section 6.3)
    spin_before_block_us: float = 50.0

    # ------------------------------------------------------------ transport
    #: logical stop-and-wait flow-control channels per NI pair (Section
    #: 5.1).  With 32 channels a client can keep a full credit window in
    #: flight; one client's window fits the 32-deep receive queue, two
    #: mostly fit once pipeline population is subtracted, and a third
    #: pins the queue full and triggers persistent overrun NACKing --
    #: Figure 6b's 75K->60K crossover between 2 and 3 clients.
    channels_per_pair: int = 32
    #: base retransmission timeout; randomized exponential backoff doubles
    #: it (with jitter) per consecutive retransmission.  Static and
    #: conservative, like the paper's firmware (RTT estimation is listed
    #: as future work in its conclusions): it must exceed the worst-case
    #: acknowledgment latency when dozens of credit windows queue at one
    #: hot receiver (32 clients x 32 credits x 6.4 us/msg ~ 6.6 ms), or
    #: healthy transfers get duplicated.  Losses therefore recover in
    #: ~10-20 ms -- rare on Myrinet; all *fast* retry behaviour rides the
    #: explicit NACK paths below.  Explicit NACKs —
    #: not this timer — drive all fast-retry behaviour.
    retrans_timeout_us: float = 8_000.0
    #: fast retry after an explicit receive-queue-overrun NACK: the
    #: receiver told us the queue was full, so retry at drain speed
    overrun_retry_us: float = 30.0
    #: retry after a not-resident NACK: paced to the driver's re-mapping
    #: latency (the retry lands shortly after the endpoint is loaded)
    not_resident_retry_us: float = 800.0
    #: delay before an unbound message reacquires a channel (§5.1): prompt
    #: -- unbinding exists to free the channel, not to delay the message
    rebind_delay_us: float = 400.0
    #: cap on the exponentially backed-off retransmission timeout
    retrans_backoff_max_us: float = 4_000.0
    #: extra retransmission-timeout allowance per payload byte (covers the
    #: staging DMAs and wire time of bulk packets so the timer does not
    #: fire while a healthy bulk transfer is still in flight)
    bulk_timeout_ns_per_byte: float = 150.0
    #: consecutive retransmissions before a message is unbound from its
    #: channel so the channel can be reused (Section 5.1)
    max_consecutive_retrans: int = 8
    #: total time without any acknowledgment before a message is returned
    #: to its sender as undeliverable (Section 3.2); kept short so tests run
    dead_timeout_ms: float = 50.0
    #: receiver-side duplicate-suppression depth per peer (Section 5.3's
    #: copy accounting): how many recently delivered message ids each
    #: :class:`~repro.nic.channels.RxPeerState` remembers.  A late copy of
    #: a message evicted from this window would be *re-delivered*, so the
    #: window must exceed the number of messages one peer can deliver
    #: while another of its messages is still unresolved — bounded by
    #: ``channels_per_pair`` outstanding plus the unbound population, far
    #: below the 512 default (tests/test_dup_window.py demonstrates both
    #: the overflow failure mode and the default's safety margin)
    dup_window: int = 512
    #: receive-queue depth per endpoint => user-level credits (Section 6.4)
    recv_queue_depth: int = 32
    send_ring_depth: int = 64
    #: user-level request credits per translation-table entry
    user_credits: int = 32
    #: payloads up to this size travel inside the descriptor (host PIO into
    #: the endpoint frame); larger ones take the bulk SBus-DMA path
    small_payload_max_bytes: int = 128

    # ----------------------------------------------------- service discipline
    #: weighted round-robin loiter budget (Section 5.2): at most 64 messages
    #: or ~4 ms on one endpoint before moving on
    wrr_max_msgs: int = 64
    wrr_max_ns: int = 4_000_000

    # ------------------------------------------------------------ residency
    #: endpoint frames on the NI (8 on LANai 4.3; 96 on newer boards)
    endpoint_frames: int = 8
    #: bytes per endpoint frame (64 KB reserved for 8 frames, Section 4.1)
    frame_bytes: int = 8192
    #: NI SRAM size (1 MB, Section 2)
    ni_sram_bytes: int = 1 << 20
    #: CPU consumed by the driver per re-mapping (host cycles actually
    #: burned; modest, or the remap thread would starve the application)
    remap_driver_overhead_us: float = 400.0
    #: additional off-CPU latency per re-mapping (lock synchronization,
    #: interrupt round-trips); with the CPU above and the frame's SBus
    #: DMAs this serializes the background thread to 200-300 remaps/s
    remap_sync_latency_us: float = 2_200.0
    #: background remap kernel thread service period
    remap_scan_period_us: float = 200.0
    #: endpoint replacement policy; the registry in
    #: :mod:`repro.osim.segdriver` defines the valid names — "random"
    #: (the paper's choice), "lru", "clock" (second chance), and
    #: "active-preference" (deprioritize endpoints with queued sends or a
    #: pending make-resident request)
    replacement_policy: str = "random"
    #: sliding window (in remaps) of the residency scoreboard's thrash
    #: detector
    thrash_window: int = 64
    #: an eviction counts as *bounced* (wasted — the Section 6.4 thrash
    #: signature) if the victim re-requests residency within this window
    thrash_bounce_us: float = 1000.0
    #: §6.4.1 ablation: with False, a write fault blocks the faulting
    #: thread synchronously until the endpoint is resident
    enable_onhost_rw: bool = True

    # ---------------------------------------------------------- express path
    #: elide the per-hop wormhole simulation for provably uncontended
    #: packets: when every link on a cached route is idle through the
    #: packet's whole occupancy window and no fault has fired, delivery
    #: collapses to one scheduled callback with identical timing, stats
    #: and link accounting (see repro.myrinet.network and DESIGN.md "The
    #: express path"), traced or not.  Purely an execution-speed knob —
    #: observables are bit-identical either way, which the fabric unit
    #: tests (tests/test_express_path.py) and the chaos suite's mode
    #: matrix (repro.chaos.run_modes) enforce in CI.
    express_path: bool = True
    #: fast-forward a host spin's empty polls in closed form: a spin whose
    #: predicate cannot change commits to one wake at the boundary where
    #: it would next see a change, stop, or split a slice, and back-fills
    #: the skipped polls, stalls and CPU time (repro.am.elision, DESIGN.md
    #: §16 "Elision").  Purely an execution-speed knob, like
    #: ``express_path``: the chaos mode matrix runs every cell both ways.
    spin_elision: bool = True

    # --------------------------------------------------------------- engine
    #: which event kernel executes the model — the one place a kernel is
    #: named; ``Cluster`` looks it up with :func:`repro.sim.resolve_kernel`
    #: after :meth:`validate`.  "sequential" is the optimized
    #: single-heap kernel, "reference" the pre-optimization ordering
    #: oracle (see DESIGN.md §13).
    engine: str = "sequential"

    # --------------------------------------------------------------- faults
    #: transient packet loss probability (transmission errors are rare on
    #: Myrinet; raise this in robustness tests)
    packet_loss_prob: float = 0.0
    packet_corrupt_prob: float = 0.0

    # ------------------------------------------------------------- derived
    @property
    def lanai_instr_ns(self) -> float:
        """Nanoseconds per LANai instruction."""
        return 1_000.0 / self.lanai_mhz

    def lanai_ns(self, instructions: int) -> int:
        """Time for an instruction budget on the LANai, in ns."""
        return round(instructions * self.lanai_instr_ns)

    @property
    def link_byte_ns(self) -> float:
        """Wire time per byte on one link."""
        return 8.0 * NS_PER_S / self.link_bandwidth_bps / 1.0

    def wire_ns(self, nbytes: int) -> int:
        """Serialization time of ``nbytes`` on one link."""
        return round(nbytes * self.link_byte_ns)

    def sbus_write_ns(self, nbytes: int) -> int:
        """NI -> host-memory DMA time (the 46.8 MB/s Figure 4 ceiling)."""
        return self.sbus_dma_startup_ns + round(nbytes * 1_000.0 / self.sbus_write_mb_s)

    def sbus_read_ns(self, nbytes: int) -> int:
        """Host-memory -> NI DMA time."""
        return self.sbus_dma_startup_ns + round(nbytes * 1_000.0 / self.sbus_read_mb_s)

    @property
    def dead_timeout_ns(self) -> int:
        return round(self.dead_timeout_ms * 1_000_000)

    def with_(self, **kwargs) -> "ClusterConfig":
        """Return a copy with fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity-check invariants; raises ValueError on nonsense."""
        if self.num_hosts < 1:
            raise ValueError("num_hosts must be >= 1")
        if self.mtu_bytes <= self.packet_header_bytes:
            raise ValueError("mtu must exceed header size")
        if self.endpoint_frames < 1:
            raise ValueError("need at least one endpoint frame")
        if self.endpoint_frames * self.frame_bytes > self.ni_sram_bytes:
            raise ValueError("endpoint frames exceed NI SRAM")
        if self.recv_queue_depth < 1 or self.send_ring_depth < 1:
            raise ValueError("queue depths must be positive")
        if self.user_credits > self.recv_queue_depth:
            raise ValueError(
                "user credits must not exceed the receive queue depth "
                "(credits exist to prevent queue overrun, Section 6.4)"
            )
        # The policy registry lives with the driver; import lazily so the
        # config module (imported by the driver) stays cycle-free.
        from ..osim.segdriver import REPLACEMENT_POLICIES

        if self.replacement_policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {self.replacement_policy!r}; "
                f"registered: {sorted(REPLACEMENT_POLICIES)}"
            )
        if self.thrash_window < 1:
            raise ValueError("thrash_window must be >= 1")
        if self.thrash_bounce_us < 0:
            raise ValueError("thrash_bounce_us must be >= 0")
        if not (0.0 <= self.packet_loss_prob <= 1.0):
            raise ValueError("packet_loss_prob must be a probability")
        if not (0.0 <= self.packet_corrupt_prob <= 1.0):
            raise ValueError("packet_corrupt_prob must be a probability")
        if self.channels_per_pair < 1:
            raise ValueError("need at least one flow-control channel")
        if self.dup_window < 1:
            raise ValueError("duplicate-suppression window must be positive")
        if self.collective_strategy not in ("host", "firmware"):
            raise ValueError(
                f"unknown collective strategy {self.collective_strategy!r}; "
                "choose from 'host', 'firmware'"
            )
        if self.coll_fanout < 2:
            raise ValueError("coll_fanout must be >= 2")
        if self.coll_timeout_ms <= 0:
            raise ValueError("coll_timeout_ms must be positive")
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; registered: {sorted(ENGINE_NAMES)}"
            )


DEFAULT_CONFIG = ClusterConfig()
