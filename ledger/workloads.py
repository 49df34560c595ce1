"""The four ledger workloads, driven only through the simulator's public API.

Each workload is a class built from ``(seed, scale)``.  The constructor
draws every input from the seed (request sizes, start stagger, put
values) so the program sees only generated inputs; ``scale`` shrinks the
simulated length for the warm-up pass and the smoke size.  One
repetition is four phases, which the driver times as spans:

``setup``   fresh cluster + virtual network + thread spawn
``run``     the load itself
``drain``   outstanding work completes, every thread exits
``verify``  outputs checked, observables digested

``run`` and ``drain`` advance simulated time in slices of ``slice_ns``
and call a ``tick`` hook between slices, so the driver can time the same
slice of simulated work in every repetition.  The slicing is part of the
workload: traced and untraced repetitions run it identically.

Load is closed loop everywhere: a Fig. 6 client has at most
``user_credits`` (32) requests outstanding, and the parallel programs
advance only as their messages complete.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass

from repro import Bundle, Cluster, ClusterConfig, star_vnet
from repro.apps.npb import NPB_SPECS
from repro.chaos.runner import reset_global_ids
from repro.lib.mpi import build_world
from repro.lib.splitc import build_splitc_world
from repro.myrinet.packet import pool_stats, reset_pool_stats
from repro.sim.core import ms, us

__all__ = ["WORKLOADS", "Outcome", "percentile", "tail_percentile"]

#: Fig. 6 request payloads; all ride in the descriptor (small-message path)
FIG6_SIZES = (0, 16, 32, 64)
#: server request-handler cost (the calibrated Fig. 6 server)
FIG6_HANDLER_NS = 8_600


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile of ``samples`` (0 < q <= 100).

    The benchmark keeps its own statistics rather than import the
    simulator's, so a change to the program cannot change how it is
    measured.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[max(1, math.ceil(len(xs) * q / 100)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile (capped at 99) that leaves at least ten of
    ``n`` samples beyond it; 0.0 when ``n`` is too small for any."""
    if n <= 10:
        return 0.0
    return min(99.0, 100.0 * (n - 10) / n)


@dataclass
class Outcome:
    """What one repetition did, as checked after it ended."""

    attempted: int
    #: ops not completed exactly once, returned to sender, or wrong
    failed: int
    #: per-op latency samples in simulated ns
    lat_ns: list
    #: ops and payload bytes inside the measured simulated window
    window_ops: int
    window_bytes: int
    window_ns: int
    digest: str
    #: per-layer counts from the layers' public stats objects
    counts: dict


def _digest(op_times, cluster, ops: tuple) -> str:
    """SHA-256 over the mode-invariant observables of one repetition.

    Express statistics and event counts are left out: they legitimately
    differ between execution modes that produce the same timeline.
    """
    doc = {
        "ops": op_times,
        "net": dataclasses.asdict(cluster.network.stats),
        "drivers": [dataclasses.asdict(n.driver.stats) for n in cluster.nodes],
        "end_ns": cluster.sim.now,
        "counts": list(ops),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class _Workload:
    """Shared repetition plumbing: fresh ids, sliced runs, stat snapshots."""

    name: str
    num_hosts: int
    #: simulated time per timed slice; about a fiftieth of run + drain
    slice_ns: int
    #: reference seconds of one full repetition on the reference host;
    #: ``run.py`` times ``round(--seconds / rep_s)`` repetitions
    rep_s: float

    def setup(self) -> None:
        reset_global_ids()
        reset_pool_stats()
        self.cluster = Cluster(ClusterConfig(num_hosts=self.num_hosts, seed=self.seed))
        self._build()

    def _mark(self) -> None:
        """Snapshot the counters that are read as deltas over run+drain."""
        c = self.cluster
        self._t0 = c.sim.now
        self._ev0 = c.sim.events_dispatched
        self._cpu0 = [(n.cpu.busy_ns, n.cpu.switches) for n in c.nodes]
        self._sbus0 = [n.nic.sbus.busy_ns for n in c.nodes]

    def _advance(self, until: int, tick) -> None:
        """Run the simulation up to ``until``, one slice at a time."""
        c = self.cluster
        while c.sim.now < until:
            c.run(until=min(until, c.sim.now + self.slice_ns))
            tick()

    def _finish(self, tick) -> None:
        """Run, one slice at a time, until every thread has exited; each
        thread body counts itself out in ``self.exited``."""
        sim = self.cluster.sim
        n = len(self.threads)
        give_up = sim.now + ms(10_000)

        def all_exited():
            return self.exited == n

        while not all_exited():
            if sim.now >= give_up:
                raise RuntimeError(f"{self.name}: threads still running at {sim.now} ns")
            sim.run(until=sim.now + self.slice_ns, stop=all_exited)
            tick()

    def counts(self, ops: int) -> dict:
        """Per-layer counts from public stats objects: totals for the
        repetition, except that events and busy fractions cover run + drain."""
        c = self.cluster
        nodes = c.nodes
        elapsed = max(1, c.sim.now - self._t0)
        express = c.network.express
        hits, falls = express.hits(), express.fallbacks()
        nic = [n.nic.stats for n in nodes]
        drv = [n.driver.stats for n in nodes]
        boards = [n.driver.scoreboard for n in nodes]
        am = [ep.stats for ep in self.endpoints]
        polls = sum(s.polls for s in am)
        remaps = sum(b.remaps for b in boards)
        events = c.sim.events_dispatched - self._ev0
        return {
            "sim.events": events,
            "sim.events_per_op": events / max(1, ops),
            "myrinet.packets": c.network.stats.sent,
            "myrinet.express_hit_ratio": hits / max(1, hits + falls),
            "myrinet.express_revoked": express.revoked,
            "myrinet.pool_misses": pool_stats()["misses"],
            "nic.data_sent": sum(s.data_sent for s in nic),
            "nic.retransmissions": sum(s.retransmissions for s in nic),
            "nic.nacks": sum(sum(s.nacks_sent.values()) for s in nic),
            "hw.sbus_busy_frac": sum(n.nic.sbus.busy_ns - b for n, b in zip(nodes, self._sbus0))
            / (elapsed * len(nodes)),
            "hw.cpu_busy_frac": sum(n.cpu.busy_ns - b for n, (b, _) in zip(nodes, self._cpu0))
            / (elapsed * len(nodes)),
            "hw.cpu_switches": sum(n.cpu.switches - s for n, (_, s) in zip(nodes, self._cpu0)),
            "osim.remaps": sum(d.remaps for d in drv),
            "osim.evictions": sum(d.evictions for d in drv),
            "osim.thrash_score": sum(b.bounced_evictions for b in boards) / max(1, remaps),
            "am.polls": polls,
            "am.useful_poll_ratio": sum(s.requests_handled + s.replies_handled for s in am)
            / max(1, polls),
            "am.credit_stalls": sum(s.credit_stalls for s in am),
        }


class Fig6(_Workload):
    """Fig. 6 small-message request/reply: closed-loop clients, one server.

    ``shared`` puts every client on one server endpoint (OneVN); otherwise
    each client has its own server endpoint (ST), all polled by one
    server thread through a :class:`Bundle`, and clients outnumber the
    server NI's endpoint frames so the segment driver re-maps.  The
    driver loads one endpoint about every 3 ms, so with 12 clients the
    last ones start ~45 ms in, and the drain waits for them.
    """

    def __init__(self, seed: int, scale: float, *, nclients: int, shared: bool,
                 measure_ms: float, warmup_ms: float = 10.0):
        self.seed = seed
        self.nclients = nclients
        self.num_hosts = nclients + 1
        self.shared = shared
        # the first endpoint page-ins take ~3 ms of simulated time
        self.warmup_ns = ms(max(4.0, warmup_ms * scale))
        self.measure_ns = ms(measure_ms * scale)
        rng = random.Random(f"{self.name}:{seed}")
        #: per-client start offsets and request-size streams
        self.stagger_ns = [rng.randrange(0, us(50)) for _ in range(nclients)]
        self.size_seeds = [rng.getrandbits(64) for _ in range(nclients)]

    def _build(self) -> None:
        c = self.cluster
        sim = c.sim
        clients = list(range(1, self.nclients + 1))
        servers, ceps = c.run_process(
            star_vnet(c, 0, clients, shared_server_ep=self.shared), "setup")
        for sep in servers:
            sep.handler_cost_ns = FIG6_HANDLER_NS
        self.endpoints = servers + ceps
        self.stop = False
        self.exited = 0
        #: per client: issued request sizes (index = seq) and completions
        self.sizes = [[] for _ in clients]
        self.done = [[] for _ in clients]
        self.returned = 0

        def on_reply(token, i, seq, t_issue):
            self.done[i].append((seq, t_issue, sim.now))

        def serve(token, i, seq, t_issue):
            token.reply(on_reply, i, seq, t_issue)

        def on_returned(msg, reason):
            self.returned += 1

        def client(thr, i, cep):
            sizes = self.sizes[i]
            rng = random.Random(self.size_seeds[i])
            block = []
            yield from thr.sleep(self.stagger_ns[i])
            while not self.stop:
                # sizes come in shuffled blocks of all four, so payload
                # volume per request does not drift with the seed
                if not block:
                    block = list(FIG6_SIZES)
                    rng.shuffle(block)
                size = block.pop()
                seq = len(sizes)
                sizes.append(size)
                yield from cep.request(thr, 0, serve, i, seq, sim.now, nbytes=size)
                yield from cep.poll(thr, limit=4)
            while len(self.done[i]) < len(sizes) and not self.returned:
                yield from cep.poll(thr, limit=8)
            self.exited += 1

        def server(thr):
            bundle = Bundle(servers)
            while self.exited < self.nclients:
                n = yield from bundle.poll_all(thr, limit=8)
                if n == 0:
                    yield from thr.compute(200)
            self.exited += 1

        self.threads = []
        for i, cep in enumerate(ceps):
            cep.undeliverable_handler = on_returned
            proc = c.node(clients[i]).start_process(f"client{i}")
            self.threads.append(proc.spawn_thread(
                lambda thr, i=i, cep=cep: client(thr, i, cep), name=f"client{i}"))
        sproc = c.node(0).start_process("server")
        self.threads.append(sproc.spawn_thread(server, name="server"))

    def run(self, tick) -> None:
        c = self.cluster
        self._mark()
        self._advance(c.sim.now + self.warmup_ns, tick)
        self.window = (c.sim.now, c.sim.now + self.measure_ns)
        self._advance(self.window[1], tick)
        self.stop = True

    def drain(self, tick) -> None:
        self._finish(tick)

    def verify(self) -> Outcome:
        t0, t1 = self.window
        attempted = sum(len(s) for s in self.sizes)
        failed = self.returned
        lat, op_times = [], []
        w_ops = w_bytes = 0
        for i, done in enumerate(self.done):
            sizes = self.sizes[i]
            seqs = [seq for seq, _, _ in done]
            unique = set(seqs)
            # exactly once: every issued seq completed, none twice
            failed += (len(sizes) - len(unique)) + (len(seqs) - len(unique))
            for seq, t_issue, t_done in done:
                op_times.append((i, seq, t_issue, t_done))
                if t0 <= t_issue < t1:
                    lat.append(t_done - t_issue)
                if t0 <= t_done < t1:
                    w_ops += 1
                    w_bytes += sizes[seq]
        failed = min(failed, attempted)
        ops = attempted - failed
        return Outcome(
            attempted=attempted, failed=failed, lat_ns=lat,
            window_ops=w_ops, window_bytes=w_bytes, window_ns=t1 - t0,
            digest=_digest(op_times, self.cluster, (attempted, ops)),
            counts=self.counts(ops))


class Fig6OneVN(Fig6):
    """4 clients on one shared, resident server endpoint, 10 + 50 ms."""

    name = "fig6_onevn"
    slice_ns = ms(1.25)
    rep_s = 3.4

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale, nclients=4, shared=True, measure_ms=50.0)


class Fig6Overcommit(Fig6):
    """12 clients, each on its own server endpoint, on 8 NI frames, 10 + 30 ms."""

    name = "fig6_overcommit"
    slice_ns = ms(1)
    rep_s = 5.8

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale, nclients=12, shared=False, measure_ms=30.0)


class _CheckedComm:
    """A rank's communicator as NPB's IS iteration sees it, with payloads
    that can be checked: every all-to-all block names its source,
    destination and the run's nonce, and the allreduce sums rank + 1.

    Payloads are metadata; the simulated network carries only the sizes,
    so the timeline is the one the unmodified iteration produces (at
    ``scale`` 1).  Anything else the iteration calls passes through.
    """

    def __init__(self, comm, nonce: int, scale: float, record):
        self._comm = comm
        self._nonce = nonce
        self._scale = scale
        self._record = record

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def allreduce(self, thr, value, op, nbytes):
        p = self._comm.size
        got = yield from self._comm.allreduce(thr, self._comm.rank + 1, op, nbytes)
        self._record["allreduce_ok"] += got == p * (p + 1) // 2
        return got

    def alltoall(self, thr, values, nbytes_each):
        comm, nonce = self._comm, self._nonce
        p, me = comm.size, comm.rank
        nbytes = max(1, round(nbytes_each * self._scale))
        out = yield from comm.alltoall(thr, [(me, d, nonce) for d in range(p)], nbytes)
        for src, block in enumerate(out):
            if src != me:
                self._record["blocks"].append((src, me, block == (src, me, nonce), nbytes))
        return out


class NpbIs(_Workload):
    """One NPB 2.2 IS Class A iteration on 16 MPI ranks (Fig. 5)."""

    name = "npb_is"
    num_hosts = 16
    slice_ns = ms(2)
    rep_s = 9.0

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        rng = random.Random(f"{self.name}:{seed}")
        self.nonce = rng.getrandbits(32)
        self.stagger_ns = [rng.randrange(0, us(50)) for _ in range(self.num_hosts)]

    def _build(self) -> None:
        c = self.cluster
        sim = c.sim
        p = self.num_hosts
        world = c.run_process(build_world(c, list(range(p))), "mpi")
        self.endpoints = [comm.endpoint for comm in world.comms]
        self.record = {"allreduce_ok": 0, "blocks": []}
        self.spans = [None] * p
        self.exited = 0
        is_iter = NPB_SPECS["is"].comm_iter

        def main(thr, comm):
            yield from comm.barrier(thr)  # pages endpoints in, aligns ranks
            t0 = sim.now
            yield from thr.compute(self.stagger_ns[comm.rank])
            yield from is_iter(_CheckedComm(comm, self.nonce, self.scale, self.record), thr, p)
            self.spans[comm.rank] = (t0, sim.now)
            self.exited += 1

        self.threads = world.spawn(main, name="is")

    def run(self, tick) -> None:
        self._mark()
        self._finish(tick)

    def drain(self, tick) -> None:
        pass

    def verify(self) -> Outcome:
        p = self.num_hosts
        blocks = self.record["blocks"]
        attempted = p * (p - 1)
        good = {(s, d) for s, d, ok, _ in blocks if ok}
        failed = min(attempted, attempted - len(good) + (len(blocks) - len(good)))
        if self.record["allreduce_ok"] != p or None in self.spans:
            failed = attempted
        spans = [s for s in self.spans if s is not None]
        start = min(s for s, _ in spans)
        end = max(e for _, e in spans)
        ops = attempted - failed
        return Outcome(
            attempted=attempted, failed=failed, lat_ns=[e - s for s, e in spans],
            window_ops=ops, window_bytes=sum(n for _, _, ok, n in blocks if ok),
            window_ns=end - start,
            digest=_digest(spans, self.cluster, (attempted, ops)),
            counts=self.counts(ops))


class Timeshare(_Workload):
    """Two Split-C apps time-sharing 16 hosts (sec. 6.3)."""

    name = "timeshare"
    num_hosts = 16
    slice_ns = ms(3.75)
    rep_s = 5.1
    napps = 2
    iterations = 60
    compute_us = 800.0
    exchange_bytes = 2048

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.iters = max(2, round(self.iterations * scale))
        rng = random.Random(f"{self.name}:{seed}")
        n = self.num_hosts
        self.stagger_ns = [[rng.randrange(0, us(50)) for _ in range(n)] for _ in range(self.napps)]
        self.values = [[rng.getrandbits(32) for _ in range(n)] for _ in range(self.napps)]

    def _build(self) -> None:
        c = self.cluster
        sim = c.sim
        nodes = list(range(self.num_hosts))
        worlds = [c.run_process(build_splitc_world(c, nodes), f"vnet{a}")
                  for a in range(self.napps)]
        self.worlds = worlds
        self.endpoints = [ctx.endpoint for w in worlds for ctx in w.contexts]
        self.iter_spans = {}
        self.exited = 0

        def app(a):
            def main(thr, ctx):
                yield from thr.sleep(self.stagger_ns[a][ctx.rank])
                right = (ctx.rank + 1) % ctx.size
                for it in range(self.iters):
                    t0 = sim.now
                    yield from thr.compute(us(self.compute_us))
                    yield from ctx.put(thr, right, (a, it, ctx.rank),
                                       self.values[a][ctx.rank] ^ it, self.exchange_bytes)
                    yield from ctx.barrier(thr)
                    self.iter_spans[(a, ctx.rank, it)] = (t0, sim.now)
                self.exited += 1
            return main

        self.threads = []
        for a, w in enumerate(worlds):
            self.threads.extend(w.spawn(app(a), name=f"app{a}"))

    def run(self, tick) -> None:
        self._mark()
        self._finish(tick)

    def drain(self, tick) -> None:
        pass

    def verify(self) -> Outcome:
        n = self.num_hosts
        attempted = self.napps * n * self.iters
        failed = attempted - len(self.iter_spans)
        for a, w in enumerate(self.worlds):
            for ctx in w.contexts:
                left = (ctx.rank - 1) % n
                want = {(a, it, left): self.values[a][left] ^ it for it in range(self.iters)}
                got = {k: ctx.memory.get(k) for k in want}
                failed += sum(1 for k in want if got[k] != want[k])
        failed = min(failed, attempted)
        spans = [self.iter_spans[k] for k in sorted(self.iter_spans)]
        start = min(s for s, _ in spans)
        end = max(e for _, e in spans)
        ops = attempted - failed
        return Outcome(
            attempted=attempted, failed=failed, lat_ns=[e - s for s, e in spans],
            window_ops=ops, window_bytes=ops * self.exchange_bytes,
            window_ns=end - start,
            digest=_digest(spans, self.cluster, (attempted, ops)),
            counts=self.counts(ops))


WORKLOADS = {w.name: w for w in (Fig6OneVN, Fig6Overcommit, NpbIs, Timeshare)}
