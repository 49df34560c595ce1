"""Conservative time-windowed parallel simulation (PDES) over shards.

The monolithic kernel tops out in the few-hundred-K events/s range
(BENCH_PERF.json); the next order of magnitude is structural.  This
module partitions the cluster into ``cfg.num_shards`` contiguous host
ranges.  Each shard owns a full private stack — pooled event heap
(:class:`~repro.sim.core.Simulator`), forked RNG namespace, fabric
(:class:`~repro.myrinet.network.Network`), metric registry — and shards
interact *only* through the inter-shard trunk modeled by
:class:`~repro.myrinet.shardlink.ShardBoundary`.

Synchronization is classic conservative windowing (YAWNS-style): since
no cross-shard record can arrive sooner than the trunk base latency
``L`` after it is emitted, every shard may safely execute all events in
``[t_min, t_min + L - 1]`` (``t_min`` = the global minimum pending
time) without hearing from its peers.  Between windows the runner
exchanges batched trunk records and recomputes the horizon.

Two executors share the exact same :class:`Shard` build:

``sequential``
    all shards share one heap — the single-kernel baseline the digests
    are gated against;
``inprocess``
    per-shard heaps stepped round-robin by window in one process — the
    windowed schedule whose critical path gives the parallelism figure.

**Determinism is the contract** (DESIGN.md §13 carries the full
argument): both executors must produce bit-identical
:meth:`ShardRunResult.digest` values.  The argument rests on (a)
shard-local state being touched only by shard-local events, (b) trunk
ingress delivering in the canonical ``(arrive, src_shard, seq)`` order
with same-host arrivals serialized onto distinct ticks, and (c) two
protocol restrictions enforced by construction here: local-fabric rx
handlers never emit trunk records, and trunk-triggered handlers never
inject local-fabric traffic (their replies re-enter ``Network.send``
and exit through the boundary before any stats or RNG state is
touched).

The scaling figure is **critical-path parallelism**: ``total_events /
Σ_windows max_per_shard_events`` — the events-per-second multiple a
perfectly parallel executor could extract from the actual windowed
schedule, including every synchronization barrier.  The
``shard_scaling`` bench suite gates that ratio (and the cross-executor
digests); measured walls are reported alongside, untrusted.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.config import ClusterConfig
from ..myrinet.network import Network
from ..myrinet.packet import Packet, PacketType
from ..myrinet.shardlink import ShardBoundary, TrunkRecord
from ..obs.metrics import MetricRegistry, merge_counter_snapshots
from .core import SimError, Simulator
from .rng import RngStreams

__all__ = [
    "SHARD_SCENARIOS",
    "Shard",
    "ShardRunResult",
    "ShardSpec",
    "ShardedSimulator",
    "TrunkIngress",
]

#: trunk packet kinds (carried in the Packet/record ``channel`` field)
KIND_REQ = 0
KIND_RSP = 1


# --------------------------------------------------------------------------
# trunk ingress: the receiving end of the boundary
# --------------------------------------------------------------------------
class TrunkIngress:
    """Canonical delivery of trunk records into one shard.

    Records are held in a heap keyed by the full record tuple — i.e.
    ``(arrive, src_shard, seq, ...)`` — and popped in that order by a
    flush scheduled at each record's arrival tick.  Same-destination
    arrivals are serialized through a per-host ``busy`` horizon with a
    gap of at least 1 ns, so every delivery lands on its own tick and
    the destination shard observes one total order regardless of how
    records were batched in transit.
    """

    __slots__ = ("shard", "heap", "busy")

    def __init__(self, shard: "Shard"):
        self.shard = shard
        self.heap: List[TrunkRecord] = []
        #: per-local-host earliest next delivery time
        self.busy: Dict[int, int] = {}

    def push(self, rec: TrunkRecord) -> None:
        sim = self.shard.sim
        delay = rec[0] - sim.now
        if delay <= 0:
            # A record arriving at or before the shard's current time
            # means the conservative window was violated — fail loudly,
            # never silently reorder.
            raise SimError(
                f"conservative window violated: trunk record arrives at "
                f"{rec[0]} but shard {self.shard.shard_id} is at {sim.now}")
        heapq.heappush(self.heap, rec)
        sim.schedule(delay, self._flush)

    def _flush(self) -> None:
        sim = self.shard.sim
        heap = self.heap
        while heap and heap[0][0] <= sim.now:
            rec = heapq.heappop(heap)
            arrive, _src_shard, _seq, _src_g, dst_g, _mid, nbytes, _kind = rec
            h = self.shard.boundary.to_local(dst_g)
            t_d = max(arrive, self.busy.get(h, 0))
            self.busy[h] = t_d + self.shard.boundary.ingress_gap_ns(nbytes)
            sim.schedule(t_d - sim.now, self.shard._trunk_deliver, rec)


# --------------------------------------------------------------------------
# shard spec + build
# --------------------------------------------------------------------------
@dataclass
class ShardSpec:
    """Everything needed to (re)build one shard."""

    shard_id: int
    num_shards: int
    hosts_per_shard: int
    scenario: str
    params: dict
    cfg: ClusterConfig

    @property
    def base(self) -> int:
        return self.shard_id * self.hosts_per_shard

    @property
    def total_hosts(self) -> int:
        return self.num_shards * self.hosts_per_shard


class Shard:
    """One shard: private kernel, fabric, RNG namespace, and workload.

    Identical regardless of executor; only ``sim`` (shared heap in the
    sequential engine) and ``emit`` (direct ingress routing vs. outbox
    batching) differ, and neither affects event content or timing.
    """

    def __init__(self, spec: ShardSpec, sim: Optional[Simulator] = None,
                 emit: Optional[Callable[[TrunkRecord], None]] = None):
        self.spec = spec
        self.shard_id = spec.shard_id
        self.sim = sim if sim is not None else Simulator()
        self.outbox: List[TrunkRecord] = []
        self.rngs = RngStreams(spec.cfg.seed).fork(f"shard{spec.shard_id}")
        local_cfg = spec.cfg.with_(num_hosts=spec.hosts_per_shard,
                                   num_shards=1, engine="sequential")
        self.net = Network(self.sim, local_cfg, rngs=self.rngs)
        self.boundary = ShardBoundary(
            spec.shard_id, spec.base, spec.hosts_per_shard, spec.cfg,
            emit if emit is not None else self.outbox.append)
        self.net.install_boundary(self.boundary)
        self.ingress = TrunkIngress(self)
        self.metrics = MetricRegistry()
        #: observable timeline: ("L"|"T", t, src_global, dst_global,
        #: msg_id, nbytes) — digest-sorted, so append order is free
        self.deliveries: List[Tuple] = []
        #: shard-namespaced message ids (globally unique, engine-invariant)
        self._mid = spec.shard_id * 10_000_000
        self._events_at_start = 0
        for local in range(spec.hosts_per_shard):
            self.net.attach(local, self._rx_local)
        builder = SHARD_SCENARIOS.get(spec.scenario)
        if builder is None:
            raise SimError(f"unknown shard scenario {spec.scenario!r}; "
                           f"registered: {sorted(SHARD_SCENARIOS)}")
        builder(self)

    # ------------------------------------------------------------ workload
    def next_mid(self) -> int:
        self._mid += 1
        return self._mid

    def inject(self, src_g: int, dst_g: int, nbytes: int, mid: int,
               kind: int = KIND_REQ) -> None:
        """Send one message; the boundary decides local fabric vs trunk."""
        self.net.send(Packet(src_g, dst_g, PacketType.DATA, channel=kind,
                             payload_bytes=nbytes, msg_id=mid))

    def inject_multicast(self, src_g: int, dsts_g: List[int], nbytes: int,
                         kind: int = KIND_REQ) -> None:
        """Fan one payload out to every destination in one tree send.

        Shard-local branches ride the fabric spanning tree as one
        wormhole fan-out; cross-shard tree edges are demoted
        packet-by-packet to the trunk by the boundary inside
        :meth:`~repro.myrinet.network.Network.send_multicast`, before any
        local stats or RNG state is touched — so the digest contract
        holds with collective traffic exactly as with unicast.
        """
        dsts = sorted(set(dsts_g))
        mids = {d: self.next_mid() for d in dsts}
        self.net.send_multicast(
            src_g, dsts,
            lambda d: Packet(src_g, d, PacketType.DATA, channel=kind,
                             payload_bytes=nbytes, msg_id=mids[d]))

    def _rx_local(self, pkt: Packet) -> None:
        # Local-fabric delivery.  Restriction (a) of the determinism
        # argument: this handler must never emit a trunk record.
        g = self.boundary.to_global
        self.deliveries.append(("L", self.sim.now, g(pkt.src_nic),
                                g(pkt.dst_nic), pkt.msg_id, pkt.payload_bytes))
        self.metrics.counter("shard.local.delivered").inc()

    def _trunk_deliver(self, rec: TrunkRecord) -> None:
        # Trunk delivery.  Restriction (b): nothing here may inject
        # local-fabric traffic; replies go back out through the trunk
        # (inject() below hits the boundary check before any local
        # stats or RNG state).
        _arrive, _src_shard, _seq, src_g, dst_g, mid, nbytes, kind = rec
        self.deliveries.append(("T", self.sim.now, src_g, dst_g, mid, nbytes))
        self.metrics.counter("shard.trunk.delivered").inc()
        if kind == KIND_REQ and self.spec.params.get("reply", True):
            self.metrics.counter("shard.trunk.replies").inc()
            reply_ns = self.spec.cfg.lanai_ns(
                self.spec.cfg.ni_recv_instr + self.spec.cfg.ni_send_instr)
            nb = int(self.spec.params.get("reply_bytes", 16))
            self.sim.schedule(reply_ns, self.inject, dst_g, src_g, nb,
                              self.next_mid(), KIND_RSP)

    # ----------------------------------------------------------- stepping
    def next_when(self) -> Optional[int]:
        heap = self.sim._heap
        return heap[0][0] if heap else None

    def step(self, until: int, inbox: List[TrunkRecord]
             ) -> Tuple[List[TrunkRecord], Optional[int], int]:
        """Ingest a batch of trunk records, run one conservative window,
        return (outbox, next pending time, events dispatched)."""
        for rec in inbox:
            self.ingress.push(rec)
        e0 = self.sim.events_dispatched
        self.sim.run(until=until)
        # Drain in place: the boundary's emit callback holds a bound
        # reference to this exact list.
        out = self.outbox[:]
        del self.outbox[:]
        return out, self.next_when(), self.sim.events_dispatched - e0

    def payload(self) -> dict:
        """Everything the runner folds into a :class:`ShardRunResult`."""
        x = self.net.express
        return {
            "deliveries": self.deliveries,
            "stats": dict(sorted(asdict(self.net.stats).items())),
            "boundary": self.boundary.stats.as_dict(),
            "counters": self.metrics.flat(),
            "express": {"hits": x.hits(), "revoked": x.revoked,
                        "boundary_demotions": x.boundary_demotions},
            "events": self.sim.events_dispatched,
            "now": self.sim.now,
        }


# --------------------------------------------------------------------------
# canonical shard scenarios
# --------------------------------------------------------------------------
_UNIFORM_DEFAULTS = dict(waves=6, stagger_ns=6_000, pad_ns=20_000,
                         cross_every=2, cross_bytes=64, reply=True,
                         reply_bytes=16)


def _params(shard: Shard, defaults: dict) -> dict:
    return {**defaults, **shard.spec.params}


def _build_local_waves(shard: Shard, p: dict,
                       cross_dst: Callable[[int, int], int]) -> None:
    """Shift-permutation local waves + periodic cross-shard traffic.

    ``cross_dst(global_src, wave)`` picks the cross-wave target; the
    per-wave schedule is identical across shards, so the load is
    balanced by construction (``uniform``) or deliberately not
    (``hotspot``).
    """
    spec = shard.spec
    n = spec.hosts_per_shard
    base_t = 1_000
    for w in range(int(p["waves"])):
        if n > 1:
            shift = (w % (n - 1)) + 1
        else:
            shift = 0
        for k in range(n):
            src_g = spec.base + k
            dst_g = spec.base + ((k + shift) % n)
            nbytes = 16 + ((w * 13 + k * 7) % 6) * 48
            shard.sim.schedule(base_t + k * int(p["stagger_ns"]),
                               shard.inject, src_g, dst_g, nbytes,
                               shard.next_mid(), KIND_REQ)
        if int(p["cross_every"]) and (w + 1) % int(p["cross_every"]) == 0:
            for k in range(n):
                src_g = spec.base + k
                shard.sim.schedule(
                    base_t + k * int(p["stagger_ns"]) + 2_500,
                    shard.inject, src_g, cross_dst(src_g, w),
                    int(p["cross_bytes"]), shard.next_mid(), KIND_REQ)
        base_t += n * int(p["stagger_ns"]) + int(p["pad_ns"])


def _build_uniform(shard: Shard) -> None:
    """Balanced: every host periodically messages its counterpart one
    shard over (mod the ring), so trunk load is symmetric."""
    p = _params(shard, _UNIFORM_DEFAULTS)
    total = shard.spec.total_hosts

    def cross_dst(src_g: int, w: int) -> int:
        return (src_g + shard.spec.hosts_per_shard * (1 + w % max(
            1, shard.spec.num_shards - 1))) % total

    _build_local_waves(shard, p, cross_dst)


def _build_hotspot(shard: Shard) -> None:
    """Adversarial: every cross wave fans into global host 0, stressing
    the ingress serializer and unbalancing the critical path."""
    p = _params(shard, _UNIFORM_DEFAULTS)
    _build_local_waves(shard, p, lambda src_g, w: 0)


def _build_chaos_storm(shard: Shard) -> None:
    """Uniform traffic plus a deterministic, build-time-seeded schedule
    of local link flaps — express disarm/re-arm, in-flight drops, and
    fault-path accounting, all shard-local and engine-invariant."""
    _build_uniform(shard)
    p = _params(shard, dict(_UNIFORM_DEFAULTS, flaps=6,
                            flap_down_ns=40_000, flap_spread_ns=400_000))
    links = shard.net.topology.all_links
    if not links:
        return
    rng = shard.rngs.stream("shard.flaps")

    def set_up(idx: int, up: bool) -> None:
        links[idx].up = up

    for _ in range(int(p["flaps"])):
        idx = rng.randrange(len(links))
        t_down = 1_000 + rng.randrange(int(p["flap_spread_ns"]))
        shard.sim.schedule(t_down, set_up, idx, False)
        shard.sim.schedule(t_down + int(p["flap_down_ns"]), set_up, idx, True)


def _build_collective(shard: Shard) -> None:
    """Rotating-root collective fan-outs over the uniform background.

    Each wave, one root per shard multicasts to every other local host
    plus a stride of counterpart hosts one shard over: the local
    branches exercise the fabric spanning tree while the cross-shard
    tree edges traverse the trunk.  Scheduled between the uniform waves
    so some fan-outs meet an idle fabric and some collide with unicast
    traffic (revoking its express flights) — both must fold into
    identical digests across executors.
    """
    _build_uniform(shard)
    p = _params(shard, dict(_UNIFORM_DEFAULTS, coll_waves=4,
                            coll_bytes=96, coll_stride=2))
    spec = shard.spec
    n = spec.hosts_per_shard
    total = spec.total_hosts
    period = n * int(p["stagger_ns"]) + int(p["pad_ns"])
    for w in range(int(p["coll_waves"])):
        root_g = spec.base + (w % n)
        dsts = [spec.base + k for k in range(n) if spec.base + k != root_g]
        if spec.num_shards > 1:
            dsts += [(root_g + n + k) % total
                     for k in range(0, n, int(p["coll_stride"]))]
        shard.sim.schedule(500 + w * period, shard.inject_multicast,
                           root_g, dsts, int(p["coll_bytes"]), KIND_REQ)


SHARD_SCENARIOS: Dict[str, Callable[[Shard], None]] = {
    "uniform": _build_uniform,
    "hotspot": _build_hotspot,
    "chaos_storm": _build_chaos_storm,
    "collective": _build_collective,
}


# --------------------------------------------------------------------------
# run result
# --------------------------------------------------------------------------
@dataclass
class ShardRunResult:
    """One sharded run, folded across shards and digest-comparable."""

    mode: str
    num_shards: int
    deliveries: List[Tuple]
    shard_stats: List[dict]
    boundary_stats: List[dict]
    counters: Dict[str, float]
    express: List[dict]
    events: int
    sim_ns: int
    wall_s: float
    #: windowed executors only
    barriers: int = 0
    crit_events: int = 0
    crit_wall_s: float = 0.0
    shard_events: List[int] = field(default_factory=list)

    def digest(self) -> str:
        """The canonical digest over everything mode-invariant: the
        sorted delivery timeline, per-shard NetworkStats and boundary
        stats, and the merged counters.  ExpressStats stay out, as
        everywhere else."""
        from ..bench.harness import digest

        return digest(*sorted(self.deliveries),
                      [sorted(s.items()) for s in self.shard_stats],
                      [sorted(b.items()) for b in self.boundary_stats],
                      sorted(self.counters.items()))

    @property
    def checks(self) -> dict:
        """The cross-engine oracle: digest, delivery count, and total
        dispatched events (the two kernels must execute the very same
        event population, not merely converge)."""
        return {"digest": self.digest(), "delivered": len(self.deliveries),
                "events": self.events}

    def parallelism(self) -> float:
        """Critical-path events parallelism of the windowed schedule."""
        if not self.crit_events:
            return 1.0
        return self.events / self.crit_events


# --------------------------------------------------------------------------
# executors
# --------------------------------------------------------------------------
class ShardedSimulator:
    """Build + run a sharded scenario under either executor."""

    def __init__(self, cfg: Optional[ClusterConfig] = None, *,
                 scenario: str = "uniform",
                 params: Optional[dict] = None, **overrides):
        cfg = cfg if cfg is not None else ClusterConfig()
        if overrides:
            cfg = cfg.with_(**overrides)
        cfg.validate()
        if cfg.num_hosts % cfg.num_shards:
            raise SimError(
                f"num_hosts ({cfg.num_hosts}) must divide evenly into "
                f"num_shards ({cfg.num_shards})")
        self.cfg = cfg
        self.scenario = scenario
        self.params = dict(params or {})

    def _spec(self, sid: int) -> ShardSpec:
        return ShardSpec(sid, self.cfg.num_shards,
                         self.cfg.num_hosts // self.cfg.num_shards,
                         self.scenario, self.params, self.cfg)

    # ------------------------------------------------------------ running
    def run(self, mode: str = "inprocess") -> ShardRunResult:
        if mode == "sequential":
            return self._run_sequential()
        if mode == "inprocess":
            return self._run_windowed()
        raise SimError(f"unknown shard executor {mode!r}; "
                       "expected sequential | inprocess")

    def _run_sequential(self) -> ShardRunResult:
        from ..chaos.runner import reset_global_ids
        reset_global_ids()
        sim = Simulator()
        shards: List[Shard] = []
        hps = self.cfg.num_hosts // self.cfg.num_shards

        def route(rec: TrunkRecord) -> None:
            shards[rec[4] // hps].ingress.push(rec)

        for sid in range(self.cfg.num_shards):
            shards.append(Shard(self._spec(sid), sim=sim, emit=route))
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        payloads = [sh.payload() for sh in shards]
        return self._fold("sequential", payloads,
                          events=sim.events_dispatched, sim_ns=sim.now,
                          wall_s=wall)

    def _run_windowed(self) -> ShardRunResult:
        from ..chaos.runner import reset_global_ids
        reset_global_ids()
        n = self.cfg.num_shards
        hps = self.cfg.num_hosts // n
        lookahead = self.cfg.shard_lookahead_ns
        shards = [Shard(self._spec(sid)) for sid in range(n)]
        t0 = time.perf_counter()
        next_whens = [sh.next_when() for sh in shards]
        inboxes: List[List[TrunkRecord]] = [[] for _ in range(n)]
        barriers = total_events = crit_events = 0
        crit_wall = 0.0
        shard_events = [0] * n
        horizon = 0
        while True:
            cands = [w for w in next_whens if w is not None]
            cands += [rec[0] for box in inboxes for rec in box]
            if not cands:
                break
            t_min = min(cands)
            until = t_min + lookahead - 1
            horizon = until
            active = [i for i in range(n)
                      if inboxes[i] or (next_whens[i] is not None
                                        and next_whens[i] <= until)]
            # Step every active shard on its window-start inbox; records
            # emitted this window are routed only after the barrier.
            outs = []
            window_events = window_wall = 0
            for i in active:
                w0 = time.perf_counter()
                out, next_whens[i], ev = shards[i].step(until, inboxes[i])
                window_wall = max(window_wall, time.perf_counter() - w0)
                window_events = max(window_events, ev)
                inboxes[i] = []
                total_events += ev
                shard_events[i] += ev
                outs += out
            for rec in outs:
                inboxes[rec[4] // hps].append(rec)
            barriers += 1
            crit_events += window_events
            crit_wall += window_wall
        wall = time.perf_counter() - t0
        return self._fold("inprocess", [sh.payload() for sh in shards],
                          events=total_events, sim_ns=horizon, wall_s=wall,
                          barriers=barriers, crit_events=crit_events,
                          crit_wall_s=crit_wall, shard_events=shard_events)

    def _fold(self, mode: str, payloads: List[dict], **kw) -> ShardRunResult:
        deliveries: List[Tuple] = []
        for p in payloads:
            deliveries.extend(p["deliveries"])
        deliveries.sort()
        return ShardRunResult(
            mode=mode, num_shards=self.cfg.num_shards, deliveries=deliveries,
            shard_stats=[p["stats"] for p in payloads],
            boundary_stats=[p["boundary"] for p in payloads],
            counters=merge_counter_snapshots(p["counters"] for p in payloads),
            express=[p["express"] for p in payloads], **kw)
