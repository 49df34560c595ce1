"""Cross-engine collective conformance suite.

The two collective strategies — ``host`` (dissemination/binomial over
AM) and ``firmware`` (NI-forwarded k-ary spanning trees) — must agree on
*semantics* while differing only in cost:

* barrier is a true synchronization point (no rank's post-barrier
  message is delivered before every rank arrived);
* broadcast delivers the root payload exactly once per rank, in order;
* reduce matches a pure-Python fold for every firmware combine op;
* each (strategy, engine) cell is bit-deterministic, and the two
  engines (sequential / reference) produce identical digests for the
  same strategy;
* the express *path* is unobservable under firmware trees: COLL steps
  that revoke committed unicast flights leave the run bit-equal to the
  express-off run on every mode-invariant stat (mirroring the
  express-path equivalence tests);
* faults demote, never deadlock: a crashed tree node bounds every
  survivor at :class:`~repro.nic.collective.CollectiveTimeout`, and
  ``crash``/``reboot`` drop the per-(root, vnet) tree state in NI SRAM
  so a rebooted NI cannot forward stale collective edges.
"""

import functools
import hashlib
import random

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.lib.mpi import build_world
from repro.nic.collective import COMBINE_OPS, CollectiveTimeout
from repro.sim import ms

STRATEGIES = ("host", "firmware")
ENGINES = ("sequential", "reference")
OPS = ("barrier", "bcast", "reduce")


def run_world(nranks, main, *, strategy="firmware", nodes=None,
              until_ms=3_000, **cfg_kw):
    """Build a cluster + MPI world, spawn ``main`` per rank, run to done."""
    nodes = list(range(nranks)) if nodes is None else list(nodes)
    cfg = ClusterConfig(num_hosts=max(2, max(nodes) + 1),
                        collective_strategy=strategy, **cfg_kw)
    cluster = Cluster(cfg)
    world = cluster.run_process(build_world(cluster, nodes), "mpi")
    threads = world.spawn(main)
    cluster.run(until=cluster.sim.now + ms(until_ms))
    for t in threads:
        assert t.finished, f"{t.name} did not finish (deadlocked collective?)"
    return cluster, [t.result for t in threads]


def _digest(records):
    h = hashlib.sha256()
    for rank in sorted(records):
        h.update(repr((rank, records[rank])).encode())
    return h.hexdigest()


def _conformance_main(records, nranks):
    """One barrier + bcast + reduce per rank, timestamps recorded."""

    def main(thr, comm):
        out = []
        yield from comm.barrier(thr)  # align before measuring
        for op in OPS:
            t0 = comm.world.sim.now
            if op == "barrier":
                result = yield from comm.barrier(thr)
            elif op == "bcast":
                result = yield from comm.bcast(
                    thr, 1, 512, ("blob", nranks) if comm.rank == 1 else None)
            else:
                result = yield from comm.reduce(thr, 0, comm.rank + 1, "sum", 8)
            out.append((op, t0, comm.world.sim.now, result))
        records[comm.rank] = out

    return main


def _check_semantics(records, nranks):
    for r in range(nranks):
        assert records[r][1][3] == ("blob", nranks)
    assert records[0][2][3] == nranks * (nranks + 1) // 2
    assert all(records[r][2][3] is None for r in range(1, nranks))


# ----------------------------------------------- the strategy x engine matrix
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_conformance_matrix_engines_digest_identical(strategy):
    """Every engine runs the same collective program bit-identically:
    the reference engine is the pre-optimization ordering oracle — a
    digest split would mean a strategy leaks kernel-dependent order."""
    nranks = 6
    digests = {}
    for engine in ENGINES:
        records = {}
        run_world(nranks, _conformance_main(records, nranks),
                  strategy=strategy, engine=engine)
        _check_semantics(records, nranks)
        digests[engine] = _digest(records)
    assert len(set(digests.values())) == 1, digests

    # per-cell determinism: a second sequential run reproduces the digest
    records = {}
    run_world(nranks, _conformance_main(records, nranks), strategy=strategy)
    assert _digest(records) == digests["sequential"]


# ------------------------------------------------------- barrier semantics
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_barrier_is_synchronization_point(strategy):
    """No rank's post-barrier message is delivered before every rank
    arrived: ranks stagger in by 1 ms each, then everyone sends to rank
    0 — whose receives must all land after the last arrival."""
    nranks = 5
    arrivals = {}
    recv_times = []

    def main(thr, comm):
        yield from thr.sleep(comm.rank * 1_000_000)
        arrivals[comm.rank] = comm.world.sim.now
        yield from comm.barrier(thr)
        exits = comm.world.sim.now
        if comm.rank:
            yield from comm.send(thr, 0, "post", 8, payload=comm.rank)
        else:
            for _ in range(nranks - 1):
                yield from comm.recv(thr, -1, "post")
                recv_times.append(comm.world.sim.now)
        return exits

    _, exits = run_world(nranks, main, strategy=strategy)
    last_arrival = max(arrivals.values())
    assert min(exits) >= last_arrival
    assert all(t >= last_arrival for t in recv_times)


# ----------------------------------------------------- broadcast semantics
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bcast_exactly_once_in_order(strategy):
    """Back-to-back broadcasts deliver each root payload exactly once
    per rank, in program order — no duplicate or reordered tree edge."""
    nranks, rounds, root = 6, 4, 2

    def main(thr, comm):
        got = []
        for k in range(rounds):
            payload = ("round", k) if comm.rank == root else None
            got.append((yield from comm.bcast(thr, root, 256, payload)))
        return got

    _, results = run_world(nranks, main, strategy=strategy)
    expected = [("round", k) for k in range(rounds)]
    assert results == [expected] * nranks


# -------------------------------------------------------- reduce semantics
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("op_name", sorted(COMBINE_OPS))
def test_reduce_matches_pure_python_fold(strategy, op_name):
    nranks, root = 5, 1
    values = [rank + 2 for rank in range(nranks)]

    def main(thr, comm):
        return (yield from comm.reduce(thr, root, values[comm.rank], op_name, 8))

    _, results = run_world(nranks, main, strategy=strategy)
    expected = functools.reduce(COMBINE_OPS[op_name], values)
    assert results[root] == expected
    assert all(results[r] is None for r in range(nranks) if r != root)


# --------------------------------------------------- property-based sweep
@pytest.mark.parametrize("seed", range(20))
def test_property_random_membership_and_express_equivalence(seed):
    """Random membership subsets, random roots/ops, concurrent
    point-to-point background traffic: collectives complete and never
    deadlock, and the express path is unobservable — the
    express-on and express-off runs of the *same* firmware-tree program
    are bit-equal on results, timestamps, and network stats."""
    rng = random.Random(seed)
    num_hosts = 8
    nranks = rng.randint(3, 6)
    nodes = sorted(rng.sample(range(num_hosts), nranks))
    rounds = [(rng.choice(OPS), rng.randrange(nranks)) for _ in range(3)]

    def make_main(records):
        def main(thr, comm):
            out = []
            for i, (op, root) in enumerate(rounds):
                # background p2p crossing the collective in flight
                yield from comm.send(thr, (comm.rank + 1) % nranks,
                                     f"bg{i}", 16, payload=(comm.rank, i))
                if op == "barrier":
                    result = yield from comm.barrier(thr)
                elif op == "bcast":
                    result = yield from comm.bcast(
                        thr, root, 128,
                        ("p", i) if comm.rank == root else None)
                else:
                    result = yield from comm.reduce(
                        thr, root, comm.rank + i + 1, "sum", 8)
                _, _, bg, _ = yield from comm.recv(
                    thr, (comm.rank - 1) % nranks, f"bg{i}")
                out.append((op, comm.world.sim.now, result, bg))
            records[comm.rank] = out
        return main

    stats = {}
    recs = {}
    for express in (True, False):
        records = {}
        cluster, _ = run_world(nranks, make_main(records), strategy="firmware",
                               nodes=nodes, express_path=express)
        recs[express] = records
        stats[express] = dict(vars(cluster.network.stats))
    assert recs[True] == recs[False]
    assert stats[True] == stats[False]


# ----------------------------------------------------------- chaos coverage
def test_collective_storm_chaos_contract():
    """The collective_storm family against the collective workload: link
    flaps and NI crashes mid-collective, yet the delivery contract holds
    and every timed-out collective is a clean CollectiveTimeout."""
    from repro.chaos import ScheduleGenerator, run_chaos

    for seed in (1, 2):
        gen = ScheduleGenerator(seed, num_hosts=8, num_spines=2,
                                num_procs=4, num_eps=4)
        report = run_chaos(gen.generate("collective_storm"), "collective",
                           keep=True)
        assert report.ok, report.violations
        wl = report.wl
        assert wl.coll_completed + wl.coll_timeouts > 0


def test_link_flap_mid_broadcast_demotes_and_delivers():
    """A link flap while the broadcast's down phase is in the air:
    the fault disarms the express path and demotes any committed
    flight, and every rank still receives the payload exactly once.
    The flapped link is off the tree route, so demotion — not loss — is
    what the protocol must survive; a severed tree edge is the
    CollectiveTimeout case covered by the chaos storm."""
    nranks = 6
    cfg = ClusterConfig(num_hosts=8, collective_strategy="firmware")
    cluster = Cluster(cfg)
    world = cluster.run_process(build_world(cluster, list(range(nranks))), "mpi")
    root_coll = cluster.node(0).nic.coll

    def flapper():
        # wait for the root NI to post the down-phase fan-out, then flap
        # host link 7 (no rank lives there) while it is in the air
        while root_coll.stats.down_sent == 0:
            yield cluster.sim.timeout(200)
        cluster.faults.set_host_link(7, False)
        yield cluster.sim.timeout(30_000)
        cluster.faults.set_host_link(7, True)

    cluster.sim.spawn(flapper(), name="flapper")

    def main(thr, comm):
        payload = "storm" if comm.rank == 0 else None
        return (yield from comm.bcast(thr, 0, 1024, payload))

    threads = world.spawn(main)
    cluster.run(until=cluster.sim.now + ms(100))
    for t in threads:
        assert t.finished, f"{t.name} did not finish"
    assert [t.result for t in threads] == ["storm"] * nranks
    assert root_coll.stats.down_sent >= 1
    assert not cluster.network._flights


def test_endpoint_event_does_not_end_a_collective_wait():
    """A masked recv landing mid-barrier wakes the endpoint's event
    CondVar, which a collective also waits on (so a free wakes it): the
    barrier must keep waiting for the late member, not return early or
    raise a false CollectiveTimeout."""
    late = ms(10)  # past endpoint warm-up, so the ping lands mid-barrier

    def main(thr, comm):
        if comm.rank == 0:
            comm.endpoint.set_event_mask({"recv"})
        else:
            yield from comm.send(thr, 0, "ping", 8)
            yield from thr.sleep(late)
        yield from comm.barrier(thr)
        return (comm.world.sim.now, comm.endpoint.stats.wakeups)

    _, results = run_world(2, main, strategy="firmware")
    (t0, wakeups), (t1, _) = results
    assert wakeups >= 1
    assert t0 >= late and t1 >= late


def test_crash_at_root_times_out_survivors():
    """Crash-at-root regression: the root NI dies before completing the
    tree; every survivor gets CollectiveTimeout — never a deadlock."""
    nranks = 4

    def main(thr, comm):
        if comm.rank == 0:
            yield from thr.sleep(ms(5))  # root never joins
            return "root"
        try:
            yield from comm.barrier(thr)
            return "completed"
        except CollectiveTimeout:
            return "timeout"

    def body(thr, comm):
        if comm.rank == 0:
            comm.world.sim.schedule(10_000, comm.world.cluster.crash_node, 0)
        return (yield from main(thr, comm))

    _, results = run_world(nranks, body, strategy="firmware",
                           coll_timeout_ms=0.5, until_ms=100)
    assert results[0] == "root"
    assert results[1:] == ["timeout"] * (nranks - 1)


def test_crash_and_reboot_drop_tree_state():
    """Regression for the PR-5 re-attach leak class: crash and firmware
    reboot must drop the per-(root, vnet) spanning-tree state held in NI
    SRAM, fail pending ops promptly, and a rebooted NI must rebuild its
    trees fresh rather than forward stale collective edges."""
    nranks = 4
    phases = {}

    def main(thr, comm):
        sim = comm.world.sim
        yield from comm.barrier(thr)  # populates trees on every NI
        if comm.rank == 0:
            phases["trees"] = {
                r: dict(comm.world.cluster.node(r).nic.coll.trees)
                for r in range(nranks)}
            sim.schedule(5_000, comm.world.cluster.crash_node, 2)
            sim.schedule(500_000, comm.world.cluster.reboot_node, 2)
        yield from thr.sleep(ms(1))  # crash + reboot both behind us
        if comm.rank == 0:
            nic2 = comm.world.cluster.node(2).nic
            phases["after_crash"] = (dict(nic2.coll.trees),
                                     dict(nic2.coll.pending))
        # after the reboot, fresh full-world collectives must complete
        yield from comm.barrier(thr)
        result = yield from comm.reduce(thr, 0, comm.rank + 1, "sum", 8)
        return result

    _, results = run_world(nranks, main, strategy="firmware",
                           coll_timeout_ms=5.0, until_ms=100)
    # every NI cached at least one spanning tree after the first barrier
    assert all(phases["trees"][r] for r in range(nranks))
    # crash dropped both the tree cache and the pending-op table, and
    # the reboot did not resurrect them
    assert phases["after_crash"] == ({}, {})
    # and the rebooted NI joined fresh collectives correctly
    assert results[0] == nranks * (nranks + 1) // 2


def test_rebooted_nic_pending_op_fails_fast():
    """An op pending on the crashing NI itself is failed by reset() at
    crash time — the host waiter wakes immediately with the abort, well
    before the timeout deadline."""
    nranks = 2

    def main(thr, comm):
        sim = comm.world.sim
        if comm.rank == 1:
            yield from thr.sleep(ms(40))
            return "peer"
        sim.schedule(20_000, comm.world.cluster.crash_node, 0)
        t0 = sim.now
        try:
            # rank 1 never joins: the op stays pending on NI 0 until the
            # crash resets it
            yield from comm.endpoint.collective(
                thr, "barrier", 77, (0, 1), 0)
            return "completed"
        except CollectiveTimeout as e:
            assert "aborted" in str(e)
            return ("aborted", sim.now - t0)

    _, results = run_world(nranks, main, strategy="firmware",
                           coll_timeout_ms=30.0, until_ms=200)
    kind, waited_ns = results[0]
    assert kind == "aborted"
    # failed at the crash (~20 us in), not at the 30 ms timeout
    assert waited_ns < ms(1)
