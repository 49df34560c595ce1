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

Every shape is one traffic generator run inside one sender-thread
skeleton (:meth:`ChaosWorkload._sender_body`), and every wait is
:func:`~repro.am.endpoint.poll_until` with a sleep as its idle step
(:func:`_poll_wait`), the one poll-then-idle loop (DESIGN §16).  Two
loops stay hand-written: :meth:`ChaosWorkload._drain_loop` polls
*before* its first check (its exit predicate reads what that poll
handled), and the streaming forwarder sends inside its loop.

A workload exposes uniform attack surfaces for the schedule resolver:
``procs`` (kill/pause targets; index 0 is the server/observer side and
is never killed by generated schedules) and ``eviction_targets``
(endpoints for forced residency eviction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from ..am.endpoint import Endpoint, poll_until
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


def _poll_wait(thr: Thread, ep: Endpoint, ready: Callable[[], object],
               deadline: Optional[int] = None) -> Generator:
    """:func:`poll_until` ``ready()`` (or ``deadline``), sleeping
    ``_IDLE_NS`` after each empty poll."""
    return poll_until(thr, ready, ep, idle=lambda: thr.sleep(_IDLE_NS),
                      limit=8, deadline=deadline)


def _quiescent(ep: Endpoint) -> bool:
    """Nothing pending, in flight or queued to send on ``ep``."""
    return not ep.has_pending() and ep.state.inflight == 0 \
        and not ep.state.send_ring


def _resolved(ep: Endpoint) -> int:
    """Requests ``ep`` sent that came back: replied to or returned."""
    return ep.stats.replies_handled + ep.stats.undeliverable


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

    # -- shared builds --------------------------------------------------------
    def _adopt(self, node: "Node", name: str, ep: Endpoint) -> None:
        """Start process ``name`` on ``node`` owning ``ep``: a kill/pause
        target, and ``ep`` an eviction target."""
        proc = node.start_process(name=name)
        proc.adopt_endpoint(ep.state)
        self.procs.append(proc)
        self.eviction_targets.append((node, ep.state))

    def _build_ranks(self, cluster: "Cluster", names: Sequence[str]) -> Generator:
        """An all-pairs virtual network with rank r on node r, owned by
        process ``names[r]``."""
        self.cluster = cluster
        self.vnet = yield from parallel_vnet(cluster, list(range(len(names))))
        for rank, name in enumerate(names):
            self._adopt(cluster.node(rank), name, self.vnet[rank])

    def _build_star(self, cluster: "Cluster", n: int, server: str,
                    client: str) -> Generator:
        """A star virtual network: one shared server endpoint on node 0
        (process ``server``), client i on node 1+i (process
        ``client.format(i)``)."""
        self.cluster = cluster
        nodes = [1 + i for i in range(n)]
        self.server_eps, self.client_eps = yield from star_vnet(
            cluster, 0, nodes, shared_server_ep=True)
        self._adopt(cluster.node(0), server, self.server_eps[0])
        for i, cep in enumerate(self.client_eps):
            self._adopt(cluster.node(nodes[i]), client.format(i), cep)

    @staticmethod
    def _spawn(threads: list[Thread], proc: "UserProcess", body, name: str) -> None:
        """Spawn ``body`` on ``proc`` into ``threads``, unless a fault
        killed ``proc`` before the scenario started."""
        if not proc.terminated:
            threads.append(proc.spawn_thread(body, name=name))

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
        sim = ep.node.sim
        need = max(1, -(-nbytes // cfg.mtu_bytes)) if nbytes > cfg.small_payload_max_bytes else 1
        deadline = sim.now + self.give_up_ns
        # the give-up test comes first: the window is re-checked only
        # after an idle step that left the deadline ahead
        yield from _poll_wait(thr, ep, lambda: sim.now >= deadline
                              or ep.credits_available(index) >= need)
        if sim.now >= deadline:
            return False
        yield from ep.request(thr, index,
                              self._on_request if handler is None else handler,
                              nbytes=nbytes)
        self.sent += 1
        return True

    def _settle(self, thr: Thread, ep: Endpoint, indices: list[int]) -> Generator:
        """Poll until the endpoint's transport state is idle or give-up."""
        sim = ep.node.sim
        credits = ep.cfg.user_credits
        deadline = sim.now + self.give_up_ns
        yield from _poll_wait(thr, ep, lambda: sim.now >= deadline or (
            _quiescent(ep)
            and all(ep.credits_available(i) >= credits for i in indices)))

    def _drain_loop(self, thr: Thread, ep: Endpoint,
                    done: Optional[Callable[[int], bool]] = None) -> Generator:
        """Poll until ``done(processed)`` holds after a poll (default: the
        stop flag is up and the endpoint is quiescent)."""
        if done is None:
            def done(processed: int) -> bool:
                return self._stop["flag"] and _quiescent(ep)
        while True:
            processed = yield from ep.poll(thr, limit=16)
            if done(processed):
                return
            if processed == 0:
                yield from thr.sleep(_IDLE_NS)

    def _sender_body(self, ep: Endpoint, indices: list[int],
                     traffic: Callable[[Thread], Generator],
                     drain: Optional[Callable[[Thread], Generator]] = None):
        """A sender thread: run ``traffic(thr)``, settle on ``indices``,
        mark the quota done, then linger in ``drain(thr)`` (default
        :meth:`_drain_loop`).  A killed process is a clean exit."""
        def body(thr: Thread) -> Generator:
            ep.undeliverable_handler = self._on_returned
            try:
                try:
                    yield from traffic(thr)
                    yield from self._settle(thr, ep, indices)
                except EndpointFreedError:
                    return  # our process was killed mid-traffic: clean exit
            finally:
                self._mark_sender_done()
            try:
                # Linger: late returns/replies (a crashed peer rebooting
                # after our settle deadline) must still be drained, or the
                # run ends with undrained queues.
                if drain is None:
                    yield from self._drain_loop(thr, ep)
                else:
                    yield from drain(thr)
            except EndpointFreedError:
                return
        return body

    def _quota_body(self, ep: Endpoint, index: int, count: int, nbytes: int,
                    handler=None):
        """A sender of ``count`` requests to translation ``index``."""
        def traffic(thr: Thread) -> Generator:
            for _ in range(count):
                ok = yield from self._guarded_request(thr, ep, index, nbytes, handler)
                if not ok:
                    # The credit window stayed shut for a whole give-up
                    # period: the peer took our requests and died before
                    # replying, so those credits are gone for good.
                    # Abandon the rest of the quota — retrying would just
                    # wait give_up_ns per message.
                    break
        return self._sender_body(ep, [index], traffic)

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
        return self._build_ranks(cluster, [f"pair{r}" for r in range(self.ranks)])

    def start(self) -> None:
        for rank, proc in enumerate(self.procs):
            ep = self.vnet[rank]
            peer = (rank + 1) % self.ranks
            self._spawn(self.sender_threads, proc, self._quota_body(
                ep, peer, self.requests, self.payload), f"pair{rank}.send")
            self._spawn(self.receiver_threads, proc, self._receiver_body(ep),
                        f"pair{rank}.recv")


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
        for rank, proc in enumerate(self.procs):
            self._spawn(self.sender_threads, proc,
                        self._collective_body(self.vnet[rank], rank), f"coll{rank}")


class BulkWorkload(ChaosWorkload):
    """One node streams bulk transfers (fragmented at the MTU, staged over
    the SBus DMA) to a sink — the shape whose mid-transfer state the
    channel-reset guard protects."""

    name = "bulk"

    def __init__(self, transfers: int = 6, payload: int = 24_576):
        super().__init__(requests=transfers, payload=payload)
        self.vnet = None

    def build(self, cluster: "Cluster") -> Generator:
        return self._build_ranks(cluster, ["bulk.sink", "bulk.src"])

    def start(self) -> None:
        sink_proc, src_proc = self.procs
        self._spawn(self.sender_threads, src_proc, self._quota_body(
            self.vnet[1], 0, self.requests, self.payload), "bulk.send")
        self._spawn(self.receiver_threads, sink_proc,
                    self._receiver_body(self.vnet[0]), "bulk.recv")


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
        return self._build_star(cluster, self.clients, "server", "client{}")

    def start(self) -> None:
        self._spawn(self.receiver_threads, self.procs[0],
                    self._receiver_body(self.server_eps[0]), "server.poll")
        for i, cep in enumerate(self.client_eps):
            self._spawn(self.sender_threads, self.procs[1 + i], self._quota_body(
                cep, 0, self.requests, self.payload), f"client{i}.send")


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
        return self._build_star(cluster, self.senders, "incast.server", "incast{}")

    def start(self) -> None:
        self._t0 = self.cluster.sim.now
        self._spawn(self.receiver_threads, self.procs[0],
                    self._receiver_body(self.server_eps[0]), "incast.server")
        for i, cep in enumerate(self.client_eps):
            self._spawn(self.sender_threads, self.procs[1 + i],
                        self._burst_body(cep), f"incast{i}.send")

    def _burst_body(self, ep):
        sim = ep.node.sim

        def traffic(thr):
            for r in range(self.rounds):
                # all senders aim at the same absolute round start
                target = self._t0 + r * self.period_ns
                if sim.now < target:
                    yield from thr.sleep(target - sim.now)
                t_start = sim.now
                want = _resolved(ep)
                for _ in range(self.burst):
                    ok = yield from self._guarded_request(
                        thr, ep, 0, nbytes=self.payload)
                    if not ok:
                        break
                    want += 1
                # fan-in: wait until every fired request resolved (reply
                # or return), or the give-up deadline
                yield from _poll_wait(thr, ep, lambda: _resolved(ep) >= want,
                                      deadline=sim.now + self.give_up_ns)
                self.round_latencies_ns.append(sim.now - t_start)
        return self._sender_body(ep, [0], traffic)

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
        # the star's "server" endpoint is our root: its translation i
        # names worker i, and every worker maps index 0 back to the root
        return self._build_star(cluster, self.workers, "fanout.root", "fanout.w{}")

    def start(self) -> None:
        self._spawn(self.sender_threads, self.procs[0],
                    self._root_body(self.server_eps[0]), "fanout.root")
        for i, cep in enumerate(self.client_eps):
            self._spawn(self.receiver_threads, self.procs[1 + i],
                        self._receiver_body(cep), f"fanout.w{i}")

    def _root_body(self, ep):
        sim = ep.node.sim

        def traffic(thr):
            for _ in range(self.rounds):
                t_start = sim.now
                want = _resolved(ep)
                for w in range(self.workers):
                    ok = yield from self._guarded_request(
                        thr, ep, w, nbytes=self.payload)
                    if ok:
                        want += 1
                yield from _poll_wait(thr, ep, lambda: _resolved(ep) >= want,
                                      deadline=sim.now + self.give_up_ns)
                self.round_latencies_ns.append(sim.now - t_start)
        return self._sender_body(ep, list(range(self.workers)), traffic)

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
        return self._build_ranks(cluster, [f"stream{r}" for r in range(self.stages)])

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
        self._spawn(self.receiver_threads, self.procs[0],
                    self._receiver_body(self.vnet[0]), "stream.sink")
        for rank in range(1, self.stages - 1):
            self._spawn(self.sender_threads, self.procs[rank],
                        self._forward_body(self.vnet[rank], rank), f"stream{rank}.fwd")
        src = self.stages - 1
        self._spawn(self.sender_threads, self.procs[src], self._quota_body(
            self.vnet[src], src - 1, self.messages, self.payload,
            self._hop_handler(src - 1)), "stream.src")

    def _forward_body(self, ep, rank: int):
        sim = ep.node.sim
        handler = self._hop_handler(rank - 1)

        def traffic(thr):
            forwarded = 0
            last_progress = sim.now
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
                # no arrivals, nothing forwarded: the upstream may be
                # dead — give up after a quiet give-up window
                if self._stop["flag"] \
                        or sim.now - last_progress >= self.give_up_ns:
                    break
                yield from thr.sleep(_IDLE_NS)
        return self._sender_body(ep, [rank - 1], traffic)

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
