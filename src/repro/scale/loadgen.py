"""Batched closed-loop load generator for endpoint-overcommit studies.

One *cell* is a complete client/server experiment at a fixed
``(replacement policy, overcommit ratio)`` point: ``ratio ×
endpoint_frames`` client endpoints, each wired to its own dedicated
server endpoint (the ST shape of Section 6.4 — one server thread
polling every endpoint), all clients streaming request bursts
closed-loop with think time between bursts.

Two deliberate asymmetries keep the measurement honest:

* client NIs get their frame arrays widened to fit every local endpoint,
  so the *only* node under residency pressure is the server — the cell
  measures the server's replacement policy, not incidental client-side
  thrash;
* transport dead time is compressed (20 ms) so requests parked against a
  long-non-resident endpoint resolve as returned-to-sender within the
  cell instead of wedging a client for the default 50 ms.

Determinism: a cell is a pure function of its config.  The result digest
is the canonical digest over the integer observables (per-client reply/undeliverable
counts, driver and scoreboard counters, NACK counts, the end time, latency
samples in ns; not the event count) — two runs of the same cell must produce
the same digest bit for bit, which ``--smoke`` and ``tests/test_scale_policies.py`` enforce.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from ..am.bundle import Bundle
from ..am.endpoint import poll_until
from ..am.vnet import new_endpoint
from ..apps.clientserver import SWEEP_IDLE_NS
from ..bench.harness import digest, timeline_digest
from ..cluster.builder import Cluster, reset_global_ids
from ..cluster.config import ClusterConfig
from ..myrinet.packet import NackReason
from ..sim.core import ms, us

__all__ = [
    "ScaleCellConfig",
    "ScaleCellResult",
    "run_cell",
    "ArrivalModel",
    "ARRIVAL_MODELS",
    "register_arrival",
]


# ======================================================== arrival models
#: registry of fleet arrival-shape models, keyed by name; filled by
#: :func:`register_arrival` and consumed by :mod:`repro.scale.fleet`.
ARRIVAL_MODELS: dict[str, type] = {}


def register_arrival(name: str):
    """Class decorator: register an :class:`ArrivalModel` under ``name``."""

    def deco(cls):
        cls.name = name
        ARRIVAL_MODELS[name] = cls
        return cls

    return deco


class ArrivalModel:
    """Per-tick arrival intensity in ``[0, 1]`` for one host.

    ``phase`` in ``[0, 1)`` desynchronizes hosts: real fleets are spread
    across timezones and load balancers, so the diurnal peak of one host
    lands in another's trough.  Implementations must be pure functions of
    ``(tick, phase)`` — the fleet digest gate depends on it.
    """

    name = "?"

    def intensity(self, tick: int, phase: float) -> float:
        raise NotImplementedError


@register_arrival("uniform")
class UniformArrival(ArrivalModel):
    """Flat load: every tick at peak intensity (the §6.4 cell shape)."""

    def intensity(self, tick: int, phase: float) -> float:
        return 1.0


@register_arrival("diurnal")
class DiurnalArrival(ArrivalModel):
    """Sinusoidal day/night cycle with a non-zero trough.

    One period is ``period_ticks``; the trough keeps a fleet-wide
    baseline of background traffic (monitoring, retries) so goodput must
    never reach zero even at night.
    """

    def __init__(self, period_ticks: int = 96, trough: float = 0.15):
        self.period_ticks = period_ticks
        self.trough = trough

    def intensity(self, tick: int, phase: float) -> float:
        x = math.sin(2.0 * math.pi * (tick / self.period_ticks + phase))
        return self.trough + (1.0 - self.trough) * 0.5 * (1.0 + x)


@register_arrival("bursty")
class BurstyArrival(ArrivalModel):
    """On-off square wave: short synchronized bursts over a quiet floor.

    The hard case for replacement: a burst re-touches a cold working set
    all at once, so a policy that evicted the wrong endpoints during the
    quiet phase pays the whole remap bill at the burst edge.
    """

    def __init__(self, period_ticks: int = 24, duty: float = 0.25,
                 idle: float = 0.05):
        self.period_ticks = period_ticks
        self.duty = duty
        self.idle = idle

    def intensity(self, tick: int, phase: float) -> float:
        pos = (tick + int(phase * self.period_ticks)) % self.period_ticks
        return 1.0 if pos < self.duty * self.period_ticks else self.idle


@dataclass
class ScaleCellConfig:
    """One (policy, ratio) cell of the overcommit sweep."""

    policy: str = "random"
    #: endpoints per NI frame at the server (1 = no overcommit)
    ratio: int = 8
    endpoint_frames: int = 8
    #: client endpoints are spread round-robin over this many nodes
    client_nodes: int = 8
    #: requests issued back-to-back per closed-loop cycle
    burst: int = 4
    #: idle time between bursts (duty cycle: idle endpoints exist, which
    #: is what distinguishes the replacement policies)
    think_us: float = 400.0
    #: eager-poll window after a burst before backing off to sleeps
    spin_us: float = 60.0
    #: sleep between polls once the spin window is spent
    poll_backoff_us: float = 150.0
    #: per-burst reply wait bound; must exceed the (compressed) transport
    #: dead time so abandoned requests resolve as returned first
    reply_wait_cap_us: float = 25_000.0
    msg_bytes: int = 0
    duration_ms: float = 60.0
    warmup_ms: float = 30.0
    #: server request-handler cost (the ~78K msg/s host ceiling)
    handler_ns: int = 8_600
    seed: int = 1999
    base: Optional[ClusterConfig] = None

    @property
    def nclients(self) -> int:
        return self.ratio * self.endpoint_frames

    def cluster_config(self) -> ClusterConfig:
        base = self.base or ClusterConfig()
        return base.with_(
            num_hosts=min(self.client_nodes, self.nclients) + 1,
            endpoint_frames=self.endpoint_frames,
            replacement_policy=self.policy,
            seed=self.seed,
            # setup + transport compression for fast, bounded cells
            ep_alloc_us=50.0,
            dead_timeout_ms=20.0,
        )


@dataclass
class ScaleCellResult:
    """Everything one cell measured (over the post-warmup window)."""

    policy: str
    ratio: int
    frames: int
    nclients: int
    seed: int
    # goodput
    completed: int = 0
    failed: int = 0
    goodput_msgs_s: float = 0.0
    failed_msgs_s: float = 0.0
    # request latency over completed bursts, per request (µs)
    p50_us: float = 0.0
    p99_us: float = 0.0
    mean_us: float = 0.0
    # residency machinery
    remaps: int = 0
    remaps_per_s: float = 0.0
    evictions: int = 0
    bounced_evictions: int = 0
    forced_evictions: int = 0
    eviction_remap_ratio: float = 0.0
    thrash_score: float = 0.0
    not_resident_nacks: int = 0
    overrun_nacks: int = 0
    server_cpu_util: float = 0.0
    # bookkeeping
    sim_ns: int = 0
    events_dispatched: int = 0
    wall_s: float = 0.0
    digest: str = ""
    #: SHA-256 over the trace timeline; only set when run with trace=True
    timeline_digest: str = ""
    latencies_ns: list[int] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "latencies_ns"}
        return d


def run_cell(ccfg: ScaleCellConfig, *, trace: bool = False) -> ScaleCellResult:
    """Run one overcommit cell; returns its :class:`ScaleCellResult`.

    ``trace=True`` additionally attaches a :class:`repro.obs.TraceBus`
    and records the timeline digest (slower; meant for the determinism
    tests and post-mortems, not the full sweep).
    """
    reset_global_ids()
    wall0 = time.perf_counter()
    cluster = Cluster(ccfg.cluster_config())
    bus = cluster.enable_tracing() if trace else None
    sim = cluster.sim
    cfg = cluster.cfg
    server_node = cluster.node(0)
    n_client_nodes = cfg.num_hosts - 1

    # Widen client NI frame arrays so every client endpoint fits: the
    # server NI is the only node under residency pressure (module doc).
    per_node = -(-ccfg.nclients // n_client_nodes)
    for node_id in range(1, cfg.num_hosts):
        nic = cluster.node(node_id).nic
        if per_node > len(nic.frames):
            nic.resize_frames(per_node)

    def setup():
        servers, clients = [], []
        for i in range(ccfg.nclients):
            node = cluster.node(1 + (i % n_client_nodes))
            cep = yield from new_endpoint(node, rngs=cluster.rngs)
            sep = yield from new_endpoint(server_node, rngs=cluster.rngs)
            cep.map(0, sep.name, sep.tag)
            sep.map(0, cep.name, cep.tag)
            sep.handler_cost_ns = ccfg.handler_ns
            clients.append(cep)
            servers.append(sep)
        return servers, clients

    servers, clients = cluster.run_process(setup(), "scale.setup")

    stop = {"flag": False}
    measuring = {"on": False}
    latencies: list[int] = []

    # ---- server: one thread sweeping all endpoints (ST, Section 6.4) ----
    bundle = Bundle(servers)
    sproc = server_node.start_process("scale.server")

    def server_body(thr):
        return poll_until(thr, lambda: stop["flag"], bundle, period=SWEEP_IDLE_NS)

    sproc.spawn_thread(server_body, name="scale.server")

    # ---- clients: batched closed loop with think time ------------------
    spin_step_ns = 2_000
    cap_ns = us(ccfg.reply_wait_cap_us)
    think_ns = us(ccfg.think_us)
    spin_ns = us(ccfg.spin_us)
    backoff_ns = us(ccfg.poll_backoff_us)
    procs = [cluster.node(1 + k).start_process(f"scale.c{k}") for k in range(n_client_nodes)]

    def make_client(cep, idx):
        def client_body(thr):
            stats = cep.stats
            while not stop["flag"]:
                t0 = sim.now
                base_r = stats.replies_handled
                base_u = stats.undeliverable
                sent = 0
                for _ in range(ccfg.burst):
                    if stop["flag"]:
                        break
                    yield from cep.request(thr, 0, None, nbytes=ccfg.msg_bytes)
                    sent += 1
                spin_until = sim.now + spin_ns
                done = lambda: stop["flag"] or (  # noqa: E731
                    (stats.replies_handled - base_r) + (stats.undeliverable - base_u) >= sent)
                idle = lambda: (thr.compute(spin_step_ns) if sim.now < spin_until  # noqa: E731
                                else thr.sleep(backoff_ns))
                yield from poll_until(thr, done, cep, idle=idle, deadline=sim.now + cap_ns)
                if measuring["on"] and sent and stats.replies_handled - base_r == sent:
                    latencies.append((sim.now - t0) // sent)
                yield from thr.sleep(think_ns)

        return client_body

    for i, cep in enumerate(clients):
        procs[i % n_client_nodes].spawn_thread(make_client(cep, i), name=f"scale.client{i}")

    # ---- warmup, then the measured window ------------------------------
    cluster.run(until=sim.now + ms(ccfg.warmup_ms))
    snap_r = [c.stats.replies_handled for c in clients]
    snap_u = [c.stats.undeliverable for c in clients]
    sb0 = server_node.driver.scoreboard.snapshot()
    snap_remaps = server_node.driver.stats.remaps
    snap_cpu = server_node.cpu.busy_ns
    nic = server_node.nic
    snap_notres = nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0)
    snap_over = nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0)
    measuring["on"] = True
    t0 = sim.now
    cluster.run(until=t0 + ms(ccfg.duration_ms))
    stop["flag"] = True
    measuring["on"] = False
    elapsed_ns = sim.now - t0
    elapsed_s = elapsed_ns / 1e9

    replies = [c.stats.replies_handled - snap_r[i] for i, c in enumerate(clients)]
    undeliv = [c.stats.undeliverable - snap_u[i] for i, c in enumerate(clients)]
    sb1 = server_node.driver.scoreboard.snapshot()
    remaps_d = int(sb1["remaps"] - sb0["remaps"])
    evictions_d = int(sb1["evictions"] - sb0["evictions"])
    bounced_d = int(sb1["bounced_evictions"] - sb0["bounced_evictions"])
    forced_d = int(sb1["forced_evictions"] - sb0["forced_evictions"])
    notres_d = nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0) - snap_notres
    over_d = nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0) - snap_over

    res = ScaleCellResult(
        policy=ccfg.policy,
        ratio=ccfg.ratio,
        frames=ccfg.endpoint_frames,
        nclients=ccfg.nclients,
        seed=ccfg.seed,
    )
    res.completed = sum(replies)
    res.failed = sum(undeliv)
    res.goodput_msgs_s = res.completed / elapsed_s
    res.failed_msgs_s = res.failed / elapsed_s
    lat = sorted(latencies)
    if lat:
        res.p50_us = lat[len(lat) // 2] / 1e3
        res.p99_us = lat[min(len(lat) - 1, (len(lat) * 99) // 100)] / 1e3
        res.mean_us = sum(lat) / len(lat) / 1e3
    res.remaps = remaps_d
    res.remaps_per_s = remaps_d / elapsed_s
    res.evictions = evictions_d
    res.bounced_evictions = bounced_d
    res.forced_evictions = forced_d
    res.eviction_remap_ratio = evictions_d / max(1, remaps_d)
    res.thrash_score = bounced_d / max(1, remaps_d)
    res.not_resident_nacks = notres_d
    res.overrun_nacks = over_d
    res.server_cpu_util = (server_node.cpu.busy_ns - snap_cpu) / elapsed_ns
    res.sim_ns = sim.now
    res.events_dispatched = sim.events_dispatched
    res.latencies_ns = lat
    res.digest = digest(
        ("cell", ccfg.policy, ccfg.ratio, ccfg.endpoint_frames, ccfg.seed),
        ("replies", replies),
        ("undeliverable", undeliv),
        ("scoreboard", remaps_d, evictions_d, bounced_d, forced_d),
        ("nacks", notres_d, over_d),
        ("sim", sim.now),
        ("latencies", lat),
    )
    if bus is not None:
        res.timeline_digest = timeline_digest(bus.events)
        bus.detach()
    res.wall_s = time.perf_counter() - wall0
    return res
