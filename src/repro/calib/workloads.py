"""Datacenter workload-diversity family: incast, RPC fan-out, streaming.

Three traffic shapes the classic suite (pairwise / bulk / client-server)
lacks, modeled on the modern patterns of "Fast Userspace Networking for
the Rest of Us" and the huge-tenant-count stress shapes of NetKernel
(PAPERS.md):

* **incast** — N senders fire synchronized bursts at one server
  endpoint (the N→1 storage/shuffle pattern); the interesting
  observable is per-burst fan-in completion latency, which amplifies as
  the server NI serializes the converged arrivals;
* **rpc_fanout** — a root scatters a request to N workers and gathers
  all replies before the next round (the partition/aggregate RPC
  pattern); round latency is gated by the *slowest* worker, so small
  per-worker jitter amplifies into the tail;
* **streaming** — a linear pipeline: a source pushes messages through
  forwarding stages to a sink; steady-state throughput is set by the
  slowest stage and the credit windows between stages.

All three subclass :class:`~repro.chaos.workloads.ChaosWorkload`, so
they run unmodified under the chaos adversary (kills, pauses, crashes,
evictions — the delivery contract is audited from the trace), and they
register themselves into the chaos workload registry on import.

:func:`run_workload_bench` runs one shape standalone, fault-free and
without a trace bus, and reduces it to integer observables (counts,
simulated latencies) plus a digest.  Mode equivalence (kernel, express
path) is checked where every shape also runs: the chaos suite's cells,
through :func:`repro.chaos.run_modes`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Generator

from ..am.errors import EndpointFreedError
from ..am.vnet import parallel_vnet, star_vnet
from ..bench.harness import digest
from ..chaos.runner import reset_global_ids
from ..chaos.workloads import _IDLE_NS, WORKLOADS, ChaosWorkload
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..sim.core import AllOf, ms

__all__ = ["IncastWorkload", "FanoutWorkload", "StreamingWorkload",
           "WORKLOAD_BENCH", "WorkloadBenchResult", "run_workload_bench",
           "percentile_ns"]

#: the bench table's shapes, in report order
WORKLOAD_BENCH = ("incast", "rpc_fanout", "streaming")


class IncastWorkload(ChaosWorkload):
    """N→1 synchronized bursts into one shared server endpoint."""

    name = "incast"

    def __init__(self, senders: int = 6, rounds: int = 6, burst: int = 4,
                 payload: int = 16, period_us: float = 600.0):
        super().__init__(requests=rounds * burst, payload=payload)
        self.senders = senders
        self.rounds = rounds
        self.burst = burst
        self.period_ns = round(period_us * 1_000)
        #: per (sender, round) fan-in completion latency
        self.round_latencies_ns: list[int] = []
        self.server_eps = []
        self.client_eps = []
        self._t0 = 0

    @property
    def num_hosts_needed(self) -> int:
        return self.senders + 1

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        nodes = [1 + i for i in range(self.senders)]
        servers, clients = yield from star_vnet(cluster, 0, nodes,
                                                shared_server_ep=True)
        self.server_eps, self.client_eps = servers, clients
        sproc = cluster.node(0).start_process(name="incast.server")
        sproc.adopt_endpoint(servers[0].state)
        self.procs.append(sproc)
        self.eviction_targets.append((cluster.node(0), servers[0].state))
        for i, cep in enumerate(clients):
            node = cluster.node(nodes[i])
            proc = node.start_process(name=f"incast{i}")
            proc.adopt_endpoint(cep.state)
            self.procs.append(proc)
            self.eviction_targets.append((node, cep.state))

    def start(self) -> None:
        self._t0 = self.cluster.sim.now
        sproc = self.procs[0]
        if not sproc.terminated:
            self.receiver_threads.append(sproc.spawn_thread(
                self._receiver_body(self.server_eps[0]), name="incast.server"))
        for i, cep in enumerate(self.client_eps):
            proc = self.procs[1 + i]
            if proc.terminated:
                continue
            self.sender_threads.append(proc.spawn_thread(
                self._burst_body(cep), name=f"incast{i}.send"))

    def _burst_body(self, ep):
        def body(thr):
            sim = ep.node.sim
            ep.undeliverable_handler = self._on_returned
            try:
                try:
                    for r in range(self.rounds):
                        # all senders aim at the same absolute round start
                        target = self._t0 + r * self.period_ns
                        if sim.now < target:
                            yield from thr.sleep(target - sim.now)
                        t_start = sim.now
                        base = ep.stats.replies_handled + ep.stats.undeliverable
                        fired = 0
                        for _ in range(self.burst):
                            ok = yield from self._guarded_request(
                                thr, ep, 0, nbytes=self.payload)
                            if not ok:
                                break
                            fired += 1
                        # fan-in: wait until every fired request resolved
                        # (reply or return), or the give-up deadline
                        deadline = sim.now + self.give_up_ns
                        while (ep.stats.replies_handled
                               + ep.stats.undeliverable) < base + fired:
                            if sim.now >= deadline:
                                break
                            processed = yield from ep.poll(thr, limit=8)
                            if processed == 0:
                                yield from thr.sleep(_IDLE_NS)
                        self.round_latencies_ns.append(sim.now - t_start)
                    yield from self._settle(thr, ep, [0])
                except EndpointFreedError:
                    return
            finally:
                self._mark_sender_done()
            try:
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body

    def bench_latencies_ns(self) -> list[int]:
        return sorted(self.round_latencies_ns)


class FanoutWorkload(ChaosWorkload):
    """RPC fan-out/fan-in: the root scatters to N workers and gathers
    every reply before the next round — tail-latency amplification."""

    name = "rpc_fanout"

    def __init__(self, workers: int = 6, rounds: int = 10, payload: int = 16):
        super().__init__(requests=rounds * workers, payload=payload)
        self.workers = workers
        self.rounds = rounds
        #: per-round scatter→last-reply latency (gated by the slowest worker)
        self.round_latencies_ns: list[int] = []
        self.server_eps = []
        self.client_eps = []

    @property
    def num_hosts_needed(self) -> int:
        return self.workers + 1

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        nodes = [1 + i for i in range(self.workers)]
        # the star's "server" endpoint is our root: its translation i
        # names worker i, and every worker maps index 0 back to the root
        servers, clients = yield from star_vnet(cluster, 0, nodes,
                                                shared_server_ep=True)
        self.server_eps, self.client_eps = servers, clients
        rproc = cluster.node(0).start_process(name="fanout.root")
        rproc.adopt_endpoint(servers[0].state)
        self.procs.append(rproc)
        self.eviction_targets.append((cluster.node(0), servers[0].state))
        for i, cep in enumerate(clients):
            node = cluster.node(nodes[i])
            proc = node.start_process(name=f"fanout.w{i}")
            proc.adopt_endpoint(cep.state)
            self.procs.append(proc)
            self.eviction_targets.append((node, cep.state))

    def start(self) -> None:
        rproc = self.procs[0]
        if not rproc.terminated:
            self.sender_threads.append(rproc.spawn_thread(
                self._root_body(self.server_eps[0]), name="fanout.root"))
        for i, cep in enumerate(self.client_eps):
            proc = self.procs[1 + i]
            if proc.terminated:
                continue
            self.receiver_threads.append(proc.spawn_thread(
                self._receiver_body(cep), name=f"fanout.w{i}"))

    def _root_body(self, ep):
        def body(thr):
            sim = ep.node.sim
            ep.undeliverable_handler = self._on_returned
            try:
                try:
                    for _ in range(self.rounds):
                        t_start = sim.now
                        base = ep.stats.replies_handled + ep.stats.undeliverable
                        fired = 0
                        for w in range(self.workers):
                            ok = yield from self._guarded_request(
                                thr, ep, w, nbytes=self.payload)
                            if ok:
                                fired += 1
                        deadline = sim.now + self.give_up_ns
                        while (ep.stats.replies_handled
                               + ep.stats.undeliverable) < base + fired:
                            if sim.now >= deadline:
                                break
                            processed = yield from ep.poll(thr, limit=8)
                            if processed == 0:
                                yield from thr.sleep(_IDLE_NS)
                        self.round_latencies_ns.append(sim.now - t_start)
                    yield from self._settle(thr, ep, list(range(self.workers)))
                except EndpointFreedError:
                    return
            finally:
                self._mark_sender_done()
            try:
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body

    def bench_latencies_ns(self) -> list[int]:
        return sorted(self.round_latencies_ns)


class StreamingWorkload(ChaosWorkload):
    """Linear pipeline: source → forwarding stages → sink.

    Ranks are numbered so the *sink* is rank 0 (``procs[0]``, the
    observer side generated chaos schedules never kill) and the source
    is the highest rank; each forwarder relays one message downstream
    per arrival.
    """

    name = "streaming"

    def __init__(self, stages: int = 4, messages: int = 30, payload: int = 16):
        if stages < 2:
            raise ValueError("streaming needs at least source + sink")
        super().__init__(requests=messages, payload=payload)
        self.stages = stages
        self.messages = messages
        #: sink arrival timestamps (end-to-end deliveries)
        self.sink_arrivals_ns: list[int] = []
        self.vnet = None

    @property
    def num_hosts_needed(self) -> int:
        return self.stages

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        self.vnet = yield from parallel_vnet(cluster,
                                             list(range(self.stages)))
        for rank in range(self.stages):
            ep = self.vnet[rank]
            node = cluster.node(rank)
            proc = node.start_process(name=f"stream{rank}")
            proc.adopt_endpoint(ep.state)
            self.procs.append(proc)
            self.eviction_targets.append((node, ep.state))

    def _hop_handler(self, dest_rank: int) -> Callable:
        if dest_rank == 0:
            def handler(token, *args):
                self.handled += 1
                self.sink_arrivals_ns.append(self.cluster.sim.now)
        else:
            def handler(token, *args):
                self.handled += 1
        return handler

    def start(self) -> None:
        sink_proc = self.procs[0]
        if not sink_proc.terminated:
            self.receiver_threads.append(sink_proc.spawn_thread(
                self._receiver_body(self.vnet[0]), name="stream.sink"))
        for rank in range(1, self.stages - 1):
            proc = self.procs[rank]
            if proc.terminated:
                continue
            self.sender_threads.append(proc.spawn_thread(
                self._forward_body(self.vnet[rank], rank),
                name=f"stream{rank}.fwd"))
        src = self.stages - 1
        if not self.procs[src].terminated:
            self.sender_threads.append(self.procs[src].spawn_thread(
                self._source_body(self.vnet[src], src), name="stream.src"))

    def _source_body(self, ep, rank: int):
        def body(thr):
            ep.undeliverable_handler = self._on_returned
            handler = self._hop_handler(rank - 1)
            try:
                try:
                    for _ in range(self.messages):
                        ok = yield from self._guarded_request(
                            thr, ep, rank - 1, nbytes=self.payload,
                            handler=handler)
                        if not ok:
                            break
                    yield from self._settle(thr, ep, [rank - 1])
                except EndpointFreedError:
                    return
            finally:
                self._mark_sender_done()
            try:
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body

    def _forward_body(self, ep, rank: int):
        def body(thr):
            sim = ep.node.sim
            ep.undeliverable_handler = self._on_returned
            handler = self._hop_handler(rank - 1)
            forwarded = 0
            last_progress = sim.now
            try:
                try:
                    while forwarded < self.messages:
                        if ep.stats.requests_handled > forwarded:
                            ok = yield from self._guarded_request(
                                thr, ep, rank - 1, nbytes=self.payload,
                                handler=handler)
                            if not ok:
                                break
                            forwarded += 1
                            last_progress = sim.now
                            continue
                        processed = yield from ep.poll(thr, limit=8)
                        if processed:
                            last_progress = sim.now
                            continue
                        # no arrivals, nothing forwarded: the upstream may
                        # be dead — give up after a quiet give-up window
                        if self._stop["flag"] \
                                or sim.now - last_progress >= self.give_up_ns:
                            break
                        yield from thr.sleep(_IDLE_NS)
                    yield from self._settle(thr, ep, [rank - 1])
                except EndpointFreedError:
                    return
            finally:
                self._mark_sender_done()
            try:
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body

    def bench_latencies_ns(self) -> list[int]:
        """Sink inter-arrival gaps — the pipeline's steady-state period."""
        arr = self.sink_arrivals_ns
        return sorted(b - a for a, b in zip(arr, arr[1:]))


WORKLOADS.update({
    IncastWorkload.name: IncastWorkload,
    FanoutWorkload.name: FanoutWorkload,
    StreamingWorkload.name: StreamingWorkload,
})


# ----------------------------------------------------------- standalone bench
def percentile_ns(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile of an already-sorted integer list."""
    if not sorted_values:
        return 0
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[max(0, min(len(sorted_values), rank) - 1)]


@dataclass
class WorkloadBenchResult:
    """One standalone run, reduced to integer observables."""

    name: str
    sent: int = 0
    handled: int = 0
    returned: int = 0
    ops: int = 0
    sim_ns: int = 0
    wall_s: float = 0.0
    p50_us: float = 0.0
    p99_us: float = 0.0
    goodput_msgs_s: float = 0.0
    digest: str = ""
    latencies_ns: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sent": self.sent,
            "handled": self.handled,
            "returned": self.returned,
            "ops": self.ops,
            "sim_ns": self.sim_ns,
            "wall_s": round(self.wall_s, 4),
            "p50_us": round(self.p50_us, 3),
            "p99_us": round(self.p99_us, 3),
            "goodput_msgs_s": round(self.goodput_msgs_s, 1),
            "digest": self.digest,
        }


def run_workload_bench(name: str, *, seed: int = 7, engine=None,
                       **kwargs) -> WorkloadBenchResult:
    """Run one diversity shape standalone and reduce it to observables.

    Without a trace bus and fault-free; the digest covers counts and
    simulated-time latencies, never kernel event counts.
    """
    reset_global_ids()
    wl = WORKLOADS[name](**kwargs)
    cfg = ClusterConfig(
        num_hosts=max(4, wl.num_hosts_needed),
        seed=seed,
        dead_timeout_ms=8.0,
    )
    cluster = Cluster(cfg, engine=engine)
    sim = cluster.sim
    sim.run_process(wl.build(cluster), name="calib.wl.setup")
    wl.give_up_ns = 3 * cfg.dead_timeout_ns
    wl.start()

    def supervise() -> Generator:
        yield wl.quota_done()
        yield sim.timeout(500_000)
        wl.stop_receivers()
        pending = [t.done for t in wl.all_threads]
        if pending:
            yield AllOf(sim, pending)
        yield sim.timeout(200_000)

    t0 = time.perf_counter()
    sim.run_process(supervise(), name="calib.wl.supervisor",
                    until=sim.now + ms(10_000))
    wall = time.perf_counter() - t0

    lats = getattr(wl, "bench_latencies_ns", lambda: [])()
    res = WorkloadBenchResult(name=name, sent=wl.sent,
                              handled=wl.handled, returned=wl.returned_seen,
                              ops=len(lats), sim_ns=sim.now, wall_s=wall,
                              latencies_ns=lats)
    res.p50_us = percentile_ns(lats, 50) / 1e3
    res.p99_us = percentile_ns(lats, 99) / 1e3
    res.goodput_msgs_s = wl.handled * 1e9 / max(1, sim.now)
    res.digest = digest((name, seed, wl.sent, wl.handled, wl.returned_seen,
                         tuple(lats), sim.now))
    return res
