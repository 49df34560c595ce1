"""Fault-tolerant workload shapes for chaos runs.

Each workload drives one of the repo's traffic patterns — pairwise
request/reply (the quickstart shape, optionally with NI-offloaded
collectives), bulk transfer, client/server over a star virtual network,
and the datacenter shapes of "Fast Userspace Networking for the Rest of
Us" (PAPERS.md): incast (N→1 synchronized bursts), RPC fan-out/fan-in
(round latency gated by the slowest worker) and a streaming pipeline —
but written to *survive the adversary*: senders never enter an
unbounded credit spin against a dead peer, receivers drain and exit on
a stop flag, and every thread treats
:class:`~repro.am.errors.EndpointFreedError` (its process was killed) as
a clean exit.  Termination is two-phase: a sender finishes its quota,
then *settles* — polls until its transport state is idle (credits home,
no in-flight messages, nothing pending) or a give-up deadline passes —
so the run ends quiescent without ever hanging on a lost peer.

A workload exposes uniform attack surfaces for the schedule resolver:
``procs`` (kill/pause targets; index 0 is the server/observer side and
is never killed by generated schedules) and ``eviction_targets``
(endpoints for forced residency eviction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..am.endpoint import Endpoint
from ..am.errors import EndpointFreedError
from ..am.vnet import parallel_vnet, star_vnet
from ..osim.threads import Thread
from ..sim.core import Event

if TYPE_CHECKING:
    from ..cluster.builder import Cluster, Node
    from ..nic.endpoint_state import EndpointState
    from ..osim.process import UserProcess

__all__ = ["ChaosWorkload", "PairwiseWorkload", "CollectiveWorkload",
           "BulkWorkload", "ClientServerWorkload", "IncastWorkload",
           "FanoutWorkload", "StreamingWorkload", "WORKLOADS",
           "make_workload"]

#: poll backoff while idle (ns) — short enough to see stop flags promptly
_IDLE_NS = 20_000


class ChaosWorkload:
    """Base: builds endpoints/processes, runs sender + receiver threads."""

    name = "base"

    def __init__(self, requests: int = 40, payload: int = 16):
        self.requests = requests
        self.payload = payload
        self.procs: list["UserProcess"] = []
        self.eviction_targets: list[tuple["Node", "EndpointState"]] = []
        self.sender_threads: list[Thread] = []
        self.receiver_threads: list[Thread] = []
        self._stop = {"flag": False}
        #: application-level receipt counts (handler invocations)
        self.handled = 0
        self.returned_seen = 0
        self.sent = 0
        self.give_up_ns = 0
        self.cluster: Optional["Cluster"] = None
        self._quota_event: Optional[Event] = None
        self._quota_count = 0

    # -- lifecycle ----------------------------------------------------------
    def build(self, cluster: "Cluster") -> Generator:
        """Allocate endpoints and processes (generator, run before faults)."""
        raise NotImplementedError

    def start(self) -> None:
        """Spawn the traffic threads (call at scenario time zero)."""
        raise NotImplementedError

    def stop_receivers(self) -> None:
        self._stop["flag"] = True

    @property
    def all_threads(self) -> list[Thread]:
        return self.sender_threads + self.receiver_threads

    # -- quota completion ---------------------------------------------------
    # Senders signal when their send quota is finished (or their process
    # died trying); afterwards they linger, draining stragglers, until the
    # supervisor raises the stop flag.  The supervisor therefore waits on
    # this event rather than on sender thread exit.
    def quota_done(self) -> Event:
        if self._quota_event is None:
            self._quota_event = Event(self.cluster.sim, name="chaos.quota")
        self._maybe_fire_quota()
        return self._quota_event

    def _mark_sender_done(self) -> None:
        self._quota_count += 1
        self._maybe_fire_quota()

    def _maybe_fire_quota(self) -> None:
        ev = self._quota_event
        if ev is not None and not ev.triggered \
                and self._quota_count >= len(self.sender_threads):
            ev.trigger(None)

    # -- shared thread bodies ----------------------------------------------
    def _on_request(self, token, *args) -> None:
        self.handled += 1

    def _on_returned(self, msg, reason) -> None:
        self.returned_seen += 1

    def _guarded_request(self, thr: Thread, ep: Endpoint, index: int,
                         nbytes: int = 0, handler=None) -> Generator:
        """Send one request without ever spinning unboundedly on credits.

        Returns True if sent, False if the credit window never reopened
        before the give-up deadline (peer dead and returns still in
        flight) — the caller just moves on; the delivery contract is
        audited from the trace, not from here.  ``handler`` overrides
        the shipped request handler (default :meth:`_on_request`).
        """
        cfg = ep.cfg
        need = max(1, -(-nbytes // cfg.mtu_bytes)) if nbytes > cfg.small_payload_max_bytes else 1
        deadline = ep.node.sim.now + self.give_up_ns
        while ep.credits_available(index) < need:
            processed = yield from ep.poll(thr, limit=8)
            if processed == 0:
                yield from thr.sleep(_IDLE_NS)
            if ep.node.sim.now >= deadline:
                return False
        yield from ep.request(thr, index,
                              self._on_request if handler is None else handler,
                              nbytes=nbytes)
        self.sent += 1
        return True

    def _settle(self, thr: Thread, ep: Endpoint, indices: list[int]) -> Generator:
        """Poll until the endpoint's transport state is idle or give-up."""
        cfg = ep.cfg
        deadline = ep.node.sim.now + self.give_up_ns
        while ep.node.sim.now < deadline:
            idle = (ep.state.inflight == 0 and not ep.state.send_ring
                    and not ep.has_pending()
                    and all(ep.credits_available(i) >= cfg.user_credits for i in indices))
            if idle:
                return
            processed = yield from ep.poll(thr, limit=8)
            if processed == 0:
                yield from thr.sleep(_IDLE_NS)

    def _drain_loop(self, thr: Thread, ep: Endpoint) -> Generator:
        """Poll until the stop flag is up and the endpoint is idle."""
        while True:
            processed = yield from ep.poll(thr, limit=16)
            if self._stop["flag"] and not ep.has_pending() \
                    and ep.state.inflight == 0 and not ep.state.send_ring:
                return
            if processed == 0:
                yield from thr.sleep(_IDLE_NS)

    def _sender_body(self, ep: Endpoint, index: int, count: int,
                     nbytes: int) -> Generator:
        def body(thr: Thread) -> Generator:
            ep.undeliverable_handler = self._on_returned
            try:
                try:
                    for _ in range(count):
                        ok = yield from self._guarded_request(thr, ep, index, nbytes=nbytes)
                        if not ok:
                            # The credit window stayed shut for a whole
                            # give-up period: the peer took our requests and
                            # died before replying, so those credits are gone
                            # for good.  Abandon the rest of the quota —
                            # retrying would just wait give_up_ns per message.
                            break
                    yield from self._settle(thr, ep, [index])
                except EndpointFreedError:
                    return  # our process was killed mid-traffic: clean exit
            finally:
                self._mark_sender_done()
            try:
                # Linger: late returns/replies (a crashed peer rebooting
                # after our settle deadline) must still be drained, or the
                # run ends with undrained queues.
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body

    def _receiver_body(self, ep: Endpoint) -> Generator:
        def body(thr: Thread) -> Generator:
            ep.undeliverable_handler = self._on_returned
            try:
                yield from self._drain_loop(thr, ep)
            except EndpointFreedError:
                return
        return body


class PairwiseWorkload(ChaosWorkload):
    """The quickstart shape: every rank requests from its right neighbour
    over an all-pairs virtual network; each rank also serves."""

    name = "pairwise"

    def __init__(self, ranks: int = 4, requests: int = 40, payload: int = 16):
        super().__init__(requests=requests, payload=payload)
        self.ranks = ranks
        self.vnet = None

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        self.vnet = yield from parallel_vnet(cluster, list(range(self.ranks)))
        for rank in range(self.ranks):
            ep = self.vnet[rank]
            node = cluster.node(rank)
            proc = node.start_process(name=f"pair{rank}")
            proc.adopt_endpoint(ep.state)
            self.procs.append(proc)
            self.eviction_targets.append((node, ep.state))

    def start(self) -> None:
        for rank in range(self.ranks):
            proc = self.procs[rank]
            if proc.terminated:
                continue
            ep = self.vnet[rank]
            peer = (rank + 1) % self.ranks
            self.sender_threads.append(proc.spawn_thread(
                self._sender_body(ep, peer, self.requests, self.payload),
                name=f"pair{rank}.send"))
            self.receiver_threads.append(proc.spawn_thread(
                self._receiver_body(ep), name=f"pair{rank}.recv"))


class CollectiveWorkload(PairwiseWorkload):
    """Pairwise point-to-point traffic plus firmware collectives.

    Each rank additionally runs a round-loop of NI-offloaded collectives
    (barrier / bcast / reduce, rotating roots) through
    :meth:`~repro.am.endpoint.Endpoint.collective`, so chaos schedules hit
    spanning-tree state in NI SRAM and down phases forwarded NI-to-NI.  A
    round that times out (tree member crashed or unreachable) abandons the
    remaining rounds on that rank — :class:`~repro.nic.collective.CollectiveTimeout` is the
    expected fault answer, never a hang — while the inherited pairwise
    traffic keeps the AM-level delivery contract auditable (COLL control
    packets are invisible to it by design).
    """

    name = "collective"

    def __init__(self, ranks: int = 4, requests: int = 40, payload: int = 16,
                 rounds: int = 6, round_gap_ns: int = 2_500_000):
        super().__init__(ranks=ranks, requests=requests, payload=payload)
        self.rounds = rounds
        #: inter-round spacing: collectives are us-scale, fault schedules
        #: ms-scale, so unpaced rounds would all finish before the first
        #: injection; the gap spreads them across the scenario window.
        self.round_gap_ns = round_gap_ns
        self.coll_completed = 0
        self.coll_timeouts = 0

    def _collective_body(self, ep: Endpoint, rank: int) -> Generator:
        from ..nic.collective import CollectiveTimeout

        members = tuple(range(self.ranks))
        ops = ("barrier", "bcast", "reduce")

        def body(thr: Thread) -> Generator:
            try:
                for r in range(self.rounds):
                    if r:
                        yield from thr.sleep(self.round_gap_ns)
                    op = ops[r % len(ops)]
                    root = r % self.ranks
                    try:
                        yield from ep.collective(
                            thr, op, 1000 + r, members, root,
                            value=(rank + 1) if op != "barrier" else None,
                            op_name="sum")
                        self.coll_completed += 1
                    except CollectiveTimeout:
                        # A member died or the tree never healed in time:
                        # the job aborts its collective phase, bounding
                        # the run at one timeout period per rank.
                        self.coll_timeouts += 1
                        return
            except EndpointFreedError:
                return  # our process was killed mid-collective: clean exit
            finally:
                self._mark_sender_done()
        return body

    def start(self) -> None:
        super().start()
        for rank in range(self.ranks):
            proc = self.procs[rank]
            if proc.terminated:
                continue
            self.sender_threads.append(proc.spawn_thread(
                self._collective_body(self.vnet[rank], rank),
                name=f"coll{rank}"))


class BulkWorkload(ChaosWorkload):
    """One node streams bulk transfers (fragmented at the MTU, staged over
    the SBus DMA) to a sink — the shape whose mid-transfer state the
    channel-reset guard protects."""

    name = "bulk"

    def __init__(self, transfers: int = 6, payload: int = 24_576):
        super().__init__(requests=transfers, payload=payload)
        self.vnet = None

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        self.vnet = yield from parallel_vnet(cluster, [0, 1])
        for rank, role in ((0, "sink"), (1, "src")):
            node = cluster.node(rank)
            proc = node.start_process(name=f"bulk.{role}")
            proc.adopt_endpoint(self.vnet[rank].state)
            self.procs.append(proc)
            self.eviction_targets.append((node, self.vnet[rank].state))

    def start(self) -> None:
        sink_proc, src_proc = self.procs
        if not src_proc.terminated:
            self.sender_threads.append(src_proc.spawn_thread(
                self._sender_body(self.vnet[1], 0, self.requests, self.payload),
                name="bulk.send"))
        if not sink_proc.terminated:
            self.receiver_threads.append(sink_proc.spawn_thread(
                self._receiver_body(self.vnet[0]), name="bulk.recv"))


class ClientServerWorkload(ChaosWorkload):
    """Clients on distinct nodes share one server endpoint (the OneVN
    star of Section 6.4); the server polls and auto-replies."""

    name = "client_server"

    def __init__(self, clients: int = 3, requests: int = 30, payload: int = 16):
        super().__init__(requests=requests, payload=payload)
        self.clients = clients
        self.server_eps: list[Endpoint] = []
        self.client_eps: list[Endpoint] = []

    def build(self, cluster: "Cluster") -> Generator:
        self.cluster = cluster
        client_nodes = [1 + i for i in range(self.clients)]
        servers, clients = yield from star_vnet(
            cluster, 0, client_nodes, shared_server_ep=True)
        self.server_eps, self.client_eps = servers, clients
        sproc = cluster.node(0).start_process(name="server")
        sproc.adopt_endpoint(servers[0].state)
        self.procs.append(sproc)
        self.eviction_targets.append((cluster.node(0), servers[0].state))
        for i, cep in enumerate(clients):
            node = cluster.node(client_nodes[i])
            proc = node.start_process(name=f"client{i}")
            proc.adopt_endpoint(cep.state)
            self.procs.append(proc)
            self.eviction_targets.append((node, cep.state))

    def start(self) -> None:
        sproc = self.procs[0]
        if not sproc.terminated:
            self.receiver_threads.append(sproc.spawn_thread(
                self._receiver_body(self.server_eps[0]), name="server.poll"))
        for i, cep in enumerate(self.client_eps):
            proc = self.procs[1 + i]
            if proc.terminated:
                continue
            self.sender_threads.append(proc.spawn_thread(
                self._sender_body(cep, 0, self.requests, self.payload),
                name=f"client{i}.send"))


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


WORKLOADS = {
    "pairwise": PairwiseWorkload,
    "bulk": BulkWorkload,
    "client_server": ClientServerWorkload,
    "collective": CollectiveWorkload,
    "incast": IncastWorkload,
    "rpc_fanout": FanoutWorkload,
    "streaming": StreamingWorkload,
}


def make_workload(name: str, **kwargs) -> ChaosWorkload:
    cls = WORKLOADS.get(name)
    if cls is None:
        # The tenant interference shape registers itself into WORKLOADS
        # on import; repro.tenant imports this package, so pull it in
        # lazily here rather than at module level.
        import importlib

        importlib.import_module("repro.tenant.interference")
        cls = WORKLOADS.get(name)
    if cls is None:
        raise ValueError(f"unknown workload {name!r} (choose from {sorted(WORKLOADS)})")
    return cls(**kwargs)
