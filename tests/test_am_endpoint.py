"""Unit tests for the AM-II programming interface (Section 3)."""

import pytest

from repro.am import BadTranslationError, Bundle, parallel_vnet, star_vnet, new_endpoint
from repro.am.endpoint import BLOCK_NS, poll_until
from repro.am.errors import EndpointFreedError
from repro.cluster import reset_global_ids
from repro.cluster import Cluster, ClusterConfig
from repro.nic import Residency
from repro.nic.message import Message, MsgKind
from repro.sim import ms, us


def build(n=4, **kw):
    return Cluster(ClusterConfig(num_hosts=n, **kw))


def pair(cluster):
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    return vnet[0], vnet[1]


def run_threads(cluster, *specs, until_ms=200):
    """specs: (node_id, body). Returns the threads."""
    threads = []
    for node_id, body in specs:
        proc = cluster.node(node_id).start_process()
        threads.append(proc.spawn_thread(body))
    cluster.run(until=cluster.sim.now + ms(until_ms))
    return threads


def test_new_endpoint_unique_tags_and_ids():
    cluster = build()
    ep1 = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "e1")
    ep2 = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "e2")
    assert ep1.name != ep2.name
    assert ep1.tag != ep2.tag
    assert ep1.tag != 0  # keys are never zero


def test_request_reply_roundtrip_and_credit_return():
    cluster = build()
    ep0, ep1 = pair(cluster)
    cfg = cluster.cfg
    got, replies = [], []

    def handler(token, x):
        got.append(x)
        token.reply(lambda t, v: replies.append(v) or 0, x + 1)

    def client(thr):
        yield from ep0.request(thr, 1, handler, 41)
        while not replies:
            yield from ep0.poll(thr)
            yield from thr.compute(us(1))

    def server(thr):
        while not got:
            yield from ep1.poll(thr)
            yield from thr.compute(us(1))
        for _ in range(50):
            yield from ep1.poll(thr)
            yield from thr.compute(us(1))

    run_threads(cluster, (1, server), (0, client))
    assert got == [41]
    assert replies == [42]
    assert ep0.credits_available(1) == cfg.user_credits  # credit returned


def test_auto_reply_returns_credit_without_handler_reply():
    cluster = build()
    ep0, ep1 = pair(cluster)
    got = []

    def handler(token, x):
        got.append(x)  # no explicit reply -> library credit reply

    def client(thr):
        yield from ep0.request(thr, 1, handler, 7)
        while ep0.credits_available(1) < cluster.cfg.user_credits:
            yield from ep0.poll(thr)
            yield from thr.compute(us(1))

    def server(thr):
        while not got:
            yield from ep1.poll(thr)
            yield from thr.compute(us(1))

    run_threads(cluster, (1, server), (0, client))
    assert got == [7]
    assert ep1.stats.auto_replies == 1


def test_unmapped_index_raises():
    cluster = build()
    ep0, _ = pair(cluster)
    proc = cluster.node(0).start_process()

    def client(thr):
        try:
            yield from ep0.request(thr, 9, None)
        except BadTranslationError:
            return "raised"

    t = proc.spawn_thread(client)
    cluster.run(until=ms(50))
    assert t.result == "raised"


def test_credit_limit_bounds_outstanding():
    """No more than user_credits requests may be un-replied at once."""
    cluster = build(user_credits=4, recv_queue_depth=32)
    ep0, ep1 = pair(cluster)
    seen = []

    def handler(token, i):
        seen.append(i)

    def client(thr):
        for i in range(12):
            yield from ep0.request(thr, 1, handler, i)
            outstanding = len(ep0._outstanding)
            assert outstanding <= 4
        while ep0.credits_available(1) < 4:
            yield from ep0.poll(thr)
            yield from thr.compute(us(1))

    def server(thr):
        while len(seen) < 12:
            yield from ep1.poll(thr)
            yield from thr.compute(us(1))

    run_threads(cluster, (1, server), (0, client))
    assert sorted(seen) == list(range(12))
    assert ep0.stats.credit_stalls > 0


def test_bulk_fragmentation_and_reassembly():
    cluster = build()
    ep0, ep1 = pair(cluster)
    cfg = cluster.cfg
    done = []

    def handler(token):
        done.append(token.nbytes)

    nbytes = cfg.mtu_bytes * 3 + 100  # 4 fragments

    def client(thr):
        yield from ep0.request(thr, 1, handler, nbytes=nbytes)
        while ep0.credits_available(1) < cfg.user_credits:
            yield from ep0.poll(thr)
            yield from thr.compute(us(2))

    def server(thr):
        while not done:
            yield from ep1.poll(thr)
            yield from thr.compute(us(2))

    run_threads(cluster, (1, server), (0, client))
    assert done == [nbytes]  # handler ran once, with the full size
    assert ep1.stats.bulk_bytes_received == nbytes
    assert ep0.stats.bulk_bytes_sent == nbytes


def test_small_payload_stays_on_pio_path():
    cluster = build()
    ep0, ep1 = pair(cluster)
    got = []

    def handler(token):
        got.append(token.nbytes)

    def client(thr):
        yield from ep0.request(thr, 1, handler, nbytes=64)
        while ep0.credits_available(1) < cluster.cfg.user_credits:
            yield from ep0.poll(thr)
            yield from thr.compute(us(1))

    def server(thr):
        while not got:
            yield from ep1.poll(thr)
            yield from thr.compute(us(1))

    run_threads(cluster, (1, server), (0, client))
    assert got == [64]
    # no bulk path for small messages (the payload rides the descriptor)
    assert ep0.stats.bulk_bytes_sent == 0
    assert ep1.stats.bulk_bytes_received == 0


def test_undeliverable_handler_invoked():
    cluster = build()
    ep0, _ = pair(cluster)
    errors = []
    ep0.undeliverable_handler = lambda msg, reason: errors.append(reason)
    # map index 5 to a nonexistent endpoint
    ep0.map(5, (1, 99), key=123)

    def client(thr):
        yield from ep0.request(thr, 5, None, nbytes=0)
        while not errors:
            yield from ep0.poll(thr)
            yield from thr.compute(us(2))

    run_threads(cluster, (0, client))
    assert len(errors) == 1
    assert ep0.stats.undeliverable == 1
    # the failed request's credit came back
    assert ep0.credits_available(5) == cluster.cfg.user_credits


def test_event_driven_wait_wakes_on_arrival():
    cluster = build()
    ep0, ep1 = pair(cluster)
    got = []

    def handler(token, x):
        got.append(x)

    def server(thr):
        ep1.set_event_mask({"recv"})
        ok = yield from ep1.wait(thr, timeout_ns=ms(150))
        assert ok, "wait timed out"
        while not got:
            yield from ep1.poll(thr)

    def client(thr):
        yield from thr.sleep(ms(20))  # past the server's spin phase
        yield from ep0.request(thr, 1, handler, 3)
        for _ in range(300):
            yield from ep0.poll(thr)
            yield from thr.compute(us(2))

    run_threads(cluster, (1, server), (0, client), until_ms=400)
    assert got == [3]
    assert ep1.stats.wakeups >= 1  # woke via the event mask, not polling


def test_wait_times_out_when_silent():
    cluster = build()
    ep0, _ = pair(cluster)
    proc = cluster.node(0).start_process()

    def body(thr):
        ok = yield from ep0.wait(thr, timeout_ns=ms(5))
        return ok

    t = proc.spawn_thread(body)
    cluster.run(until=ms(100))
    assert t.result is False


# ------------------------------------------------------- the one spin loop
def test_spin_returns_the_ready_value_without_polling():
    cluster = build()
    ep0, _ = pair(cluster)

    def body(thr):
        polls = ep0.stats.polls
        value = yield from ep0.spin(thr, lambda: ("match", 7))
        return value, ep0.stats.polls - polls

    (t,) = run_threads(cluster, (0, body), until_ms=1)
    assert t.result == (("match", 7), 0)


def test_poll_until_stops_at_deadline_without_polling_again():
    cluster = build()
    sim = cluster.sim
    polled_at = []

    class Target:
        _watched = ()  # nothing to watch: the loop steps

        def poll(self, thr, limit):
            polled_at.append(sim.now)
            yield from thr.compute(500)
            return 0

    def body(thr):
        t0 = sim.now
        value = yield from poll_until(thr, lambda: False, Target(),
                                      period=1_000, deadline=t0 + 4_000)
        return value, [t - t0 for t in polled_at], sim.now - t0

    (t,) = run_threads(cluster, (0, body), until_ms=1)
    # polls at 0, 1.5 and 3 us; the idle after the third ends past the
    # deadline, so the loop returns there instead of polling a fourth time
    assert t.result == (None, [0, 1_500, 3_000], 4_500)


def test_spin_then_block_hands_off_to_wait():
    cluster = build()
    sim = cluster.sim
    ep0, _ = pair(cluster)
    waits = []
    real_wait = ep0.wait

    def recording_wait(thr, timeout_ns=None):
        waits.append(timeout_ns)
        return real_wait(thr, timeout_ns=timeout_ns)

    ep0.wait = recording_wait

    def body(thr):
        t0 = sim.now
        value = yield from ep0.spin(thr, lambda: False, deadline=t0 + ms(3), then_block=True)
        return value, thr.cpu_ns

    (t,) = run_threads(cluster, (0, body), until_ms=20)
    value, cpu_ns = t.result
    assert value is None
    assert waits == [BLOCK_NS, BLOCK_NS]
    # the thread slept through the blocks rather than spinning on the CPU
    assert cpu_ns < us(200)


def test_credit_stall_counts_once_per_not_ready_iteration():
    cluster = build()
    sim = cluster.sim
    ep0, _ = pair(cluster)
    ep0._credits[1] = 0  # window exhausted: request must spin

    def refund():
        yield sim.timeout(us(20))
        ep0._refund(1)  # signals the spin, as a reply or a return does

    def body(thr):
        polls, stalls = ep0.stats.polls, ep0.stats.credit_stalls
        yield from ep0.request(thr, 1, None)
        return ep0.stats.polls - polls, ep0.stats.credit_stalls - stalls

    sim.spawn(refund())
    (t,) = run_threads(cluster, (0, body), until_ms=1)
    polls, stalls = t.result
    assert stalls > 1
    assert stalls == polls  # one stall per not-ready check, each followed by one poll


def test_shared_endpoint_charges_lock_cost():
    cluster = build()
    ep0, _ = pair(cluster)
    ep0.set_shared(True)
    proc = cluster.node(0).start_process()

    def body(thr):
        t0 = cluster.sim.now
        yield from ep0.poll(thr)
        return cluster.sim.now - t0

    t = proc.spawn_thread(body)
    cluster.run(until=ms(50))
    assert t.result >= cluster.cfg.shared_ep_lock_ns


def test_send_to_nonresident_endpoint_uses_cheap_write():
    """Os differs by residency: PIO when resident, cacheable store when not."""
    cluster = build()
    ep0, _ = pair(cluster)
    assert ep0.state.residency is Residency.ONHOST_RO
    assert ep0._send_overhead_ns() == cluster.cfg.host_write_nonresident_ns
    ep0.state.residency = Residency.ONNIC_RW
    assert ep0._send_overhead_ns() == cluster.cfg.host_send_overhead_ns
    assert ep0._poll_touch_ns() == cluster.cfg.poll_resident_ns
    ep0.state.residency = Residency.ONHOST_RO
    assert ep0._poll_touch_ns() == cluster.cfg.poll_host_ns


def test_bundle_polls_round_robin():
    cluster = build()
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1, 2]), "setup")
    ep0, ep1, ep2 = vnet[0], vnet[1], vnet[2]
    server_node = cluster.node(0)
    # two endpoints on node 0 bundled together
    ep0b = cluster.run_process(new_endpoint(server_node, rngs=cluster.rngs), "eb")
    bundle = Bundle([ep0, ep0b])
    assert len(bundle) == 2
    assert list(iter(bundle)) == [ep0, ep0b]
    proc = server_node.start_process()

    def body(thr):
        n = yield from bundle.poll_all(thr)
        return n

    t = proc.spawn_thread(body)
    cluster.run(until=ms(50))
    assert t.result == 0  # nothing pending, but both were swept


def test_star_vnet_shapes():
    cluster = build(8)
    servers, clients = cluster.run_process(
        star_vnet(cluster, 0, [1, 2, 3], shared_server_ep=True), "star"
    )
    assert len(servers) == 1 and len(clients) == 3
    servers2, clients2 = cluster.run_process(
        star_vnet(cluster, 0, [1, 2, 3], shared_server_ep=False), "star2"
    )
    assert len(servers2) == 3
    # each client maps index 0 at its server endpoint
    for cep in clients2:
        assert 0 in cep.state.translation


# ------------------------------------------------------------ spin elision
def _arrive(ep, handler):
    """Append a reply to ``ep``'s queue and signal its spin, as the
    firmware's delivery does."""
    st = ep.state
    st.recv_replies.append(Message(
        src_node=1, src_ep=0, dst_node=st.node, dst_ep=st.ep_id, key=st.tag,
        kind=MsgKind.REPLY, payload_bytes=0, is_bulk=False, body=(handler, (), {})))
    if st.waiter is not None:
        st.waiter.signal()


def _spin_run(elision, scenario, bundled=False, **cfg):
    """Run ``scenario(cluster, target, thr, t0)`` -- a spin body started at
    ``t0`` with the CPU held, on ``ep0`` or, ``bundled``, on a bundle of
    ``ep0`` and two more node-0 endpoints -- and return everything a
    stepped and an elided spin must agree on, plus the kernel events it
    took."""
    reset_global_ids()
    cluster = build(spin_elision=elision, **cfg)
    ep0, _ = pair(cluster)
    eps = [ep0]
    if bundled:
        eps += [cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "eb")
                for _ in range(2)]
    target = Bundle(eps) if bundled else ep0
    bus = cluster.enable_tracing()
    sim = cluster.sim
    cpu = cluster.node(0).cpu
    out = {}

    readers = (lambda: cpu.busy_ns, lambda: thr.cpu_ns, lambda: ep0.stats.polls,
               lambda: ep0.stats.credit_stalls, lambda: eps[-1].stats.polls)

    def probe(k):
        # mid-spin reads must see the stepped counters, whichever comes first
        order = readers[k:] + readers[:k]
        out[f"probe{k}"] = (sim.now, [read() for read in order])

    def body(thr):
        yield from thr.compute(1_000)  # take the CPU
        t0 = sim.now
        for k in range(len(readers)):
            sim.schedule((k + 1) * 7_777, probe, k)
        try:
            out["value"] = yield from scenario(cluster, target, thr, t0)
        except EndpointFreedError:
            out["value"] = "freed"
        out["returned_at"] = sim.now - t0

    thr = cluster.node(0).start_process().spawn_thread(body)
    ev0 = sim.events_dispatched
    cluster.run(until=sim.now + ms(5))
    stats = ep0.stats
    out.update(polls=stats.polls, stalls=stats.credit_stalls, busy_ns=cpu.busy_ns,
               member_polls=[ep.stats.polls for ep in eps],
               cpu_ns=thr.cpu_ns, switches=cpu.switches,
               timeline=[(e.ts, e.kind, e.node, sorted(e.args.items())) for e in bus.events])
    return out, sim.events_dispatched - ev0


def _elided_equals_stepped(scenario, bundled=False, **cfg):
    elided, elided_events = _spin_run(True, scenario, bundled, **cfg)
    stepped, stepped_events = _spin_run(False, scenario, bundled, **cfg)
    assert elided == stepped
    assert elided_events < stepped_events  # non-vacuous: polls were skipped
    return elided


def test_elided_spin_sees_an_arrival_on_a_poll_check_in_kernel_order():
    """An arrival at exactly a poll's queue check is seen there only if its
    kernel entry was drawn before that iteration's (virtual) timeout."""
    period = 1_000

    def scenario(drawn_late):
        def body(cluster, ep0, thr, t0):
            sim = cluster.sim
            hit = {}
            touch = ep0._poll_touch_ns() + ep0._lock_cost()
            check = t0 + touch + 5 * (touch + period)  # the sixth poll's queue check

            def handler(token):
                hit["at"] = sim.now

            if drawn_late:
                # drawn 1 ns before the check, after the check's timeout was drawn
                sim.schedule(check - 1 - t0, lambda: sim.schedule(1, _arrive, ep0, handler))
            else:
                sim.schedule(check - t0, _arrive, ep0, handler)
            yield from ep0.spin(thr, lambda: hit.get("at"), period=period)
            return hit["at"] - check, touch
        return body

    early = _elided_equals_stepped(scenario(False))
    late = _elided_equals_stepped(scenario(True))
    touch = early["value"][1]
    # the late arrival misses that check and is seen one iteration later
    assert late["value"][0] - early["value"][0] == touch + period


def test_elided_spin_yields_to_a_kernel_priority_job():
    def scenario(cluster, ep0, thr, t0):
        sim = cluster.sim
        cpu = thr.cpu

        def kernel_job():
            yield sim.timeout(3_333)
            yield from cpu.compute(20_000, priority=1)

        sim.spawn(kernel_job())
        return (yield from ep0.spin(thr, lambda: False, deadline=t0 + us(60)))

    out = _elided_equals_stepped(scenario)
    assert out["switches"] >= 2


def test_elided_spin_hands_off_at_quantum_expiry_to_a_queued_thread():
    def scenario(cluster, ep0, thr, t0):
        other = {}

        def rival(thr2):
            yield from thr2.compute(10_000)
            other["done"] = cluster.sim.now

        cluster.node(0).start_process().spawn_thread(rival)
        value = yield from ep0.spin(thr, lambda: False, deadline=t0 + us(500))
        return value, other.get("done", 0) - t0

    out = _elided_equals_stepped(scenario, cpu_quantum_ns=us(100))
    assert out["value"][1] > 0 and out["switches"] >= 2


def test_elided_spin_parks_on_pause_and_resumes():
    def scenario(cluster, ep0, thr, t0):
        sim = cluster.sim
        sim.schedule(5_001, thr.pause)
        sim.schedule(25_003, thr.resume)
        return (yield from ep0.spin(thr, lambda: False, deadline=t0 + us(50)))

    out = _elided_equals_stepped(scenario)
    assert out["cpu_ns"] < out["returned_at"]  # the paused stretch used no CPU


def test_elided_spin_interrupted_mid_run_hands_off_as_stepped():
    """The interrupt aborts the spin's open slice when it is delivered:
    the passed slices are charged and the queued thread gets the CPU, at
    the same times as a stepped spin."""
    def scenario(cluster, ep0, thr, t0):
        def rival(thr2):
            yield from thr2.compute(10_000)

        cluster.node(0).start_process().spawn_thread(rival)
        cluster.sim.schedule(12_345, thr.interrupt, "killed")
        return (yield from ep0.spin(thr, lambda: False, deadline=t0 + us(500)))

    out = _elided_equals_stepped(scenario)
    assert "returned_at" not in out  # the spinner died
    assert out["switches"] >= 1 and out["busy_ns"] > out["cpu_ns"]  # the rival ran


def test_elided_spin_raises_on_a_free_at_the_stepped_time():
    def scenario(cluster, ep0, thr, t0):
        cluster.sim.schedule(12_345, lambda: cluster.sim.spawn(
            cluster.node(0).driver.free_endpoint(ep0.state)))
        return (yield from ep0.spin(thr, lambda: False, deadline=t0 + us(500)))

    out = _elided_equals_stepped(scenario)
    assert out["value"] == "freed" and out["returned_at"] < us(500)


def test_elided_spin_follows_a_residency_flip():
    """The touch cost drops from 800 to 80 ns mid-spin."""
    def scenario(cluster, ep0, thr, t0):
        def flip():
            ep0.state.residency = Residency.ONHOST_RO

        ep0.state.residency = Residency.ONNIC_RW
        cluster.sim.schedule(10_101, flip)
        return (yield from ep0.spin(thr, lambda: False, deadline=t0 + us(40)))

    out = _elided_equals_stepped(scenario)
    cfg = ClusterConfig()
    assert out["busy_ns"] > out["polls"] * cfg.poll_host_ns * 2  # some polls cost 800 ns


def test_elided_spin_returns_at_its_deadline():
    def scenario(cluster, ep0, thr, t0):
        return (yield from ep0.spin(thr, lambda: False, period=777, deadline=t0 + us(33)))

    out = _elided_equals_stepped(scenario)
    assert out["value"] is None and out["returned_at"] >= us(33)


def test_elided_credit_wait_counts_every_stall():
    def scenario(cluster, ep0, thr, t0):
        ep0._credits[1] = 0
        cluster.sim.schedule(us(20) + 3, ep0._refund, 1)
        yield from ep0.request(thr, 1, None)
        return ep0.stats.credit_stalls

    out = _elided_equals_stepped(scenario)
    assert out["value"] > 1


# --------------------------------------------- elided bundle sweeps (§6.4)
def _sweep(thr, bundle, ready, **kw):
    """The ST server loop: ``poll_until`` over ``poll_all`` with a compute idle."""
    value = yield from poll_until(thr, ready, bundle, period=1_000, **kw)
    return value, bundle._next


def test_elided_sweep_sees_an_arrival_on_a_later_member_in_kernel_order():
    """An arrival on the third member at exactly a sweep's queue check is
    drained there only if its entry was drawn before that sweep's
    (virtual) timeout; the rotation then continues from the stepped
    position."""
    def scenario(drawn_late):
        def body(cluster, bundle, thr, t0):
            sim = cluster.sim
            hit = {}
            sweep = bundle._sweep_ns()
            check = t0 + sweep + 5 * (sweep + 1_000)  # the sixth sweep's queue check

            def handler(token):
                hit["at"] = sim.now

            member = bundle.endpoints[2]
            if drawn_late:
                sim.schedule(check - 1 - t0, lambda: sim.schedule(1, _arrive, member, handler))
            else:
                sim.schedule(check - t0, _arrive, member, handler)
            value, rotation = yield from _sweep(thr, bundle, lambda: hit.get("at"))
            return value - check, sweep, rotation
        return body

    early = _elided_equals_stepped(scenario(False), bundled=True)
    late = _elided_equals_stepped(scenario(True), bundled=True)
    sweep = early["value"][1]
    assert late["value"][0] - early["value"][0] == sweep + 1_000
    # six and seven sweeps ran: the cursor moved once per sweep
    assert (early["value"][2], late["value"][2]) == (6 % 3, 7 % 3)
    assert early["member_polls"] == [6, 6, 6]


def test_elided_sweep_raises_when_a_member_is_freed_at_the_stepped_time():
    def scenario(cluster, bundle, thr, t0):
        member = bundle.endpoints[1]
        cluster.sim.schedule(12_345, lambda: cluster.sim.spawn(
            cluster.node(0).driver.free_endpoint(member.state)))
        return (yield from _sweep(thr, bundle, lambda: False, deadline=t0 + us(500)))

    out = _elided_equals_stepped(scenario, bundled=True)
    assert out["value"] == "freed" and out["returned_at"] < us(500)


def test_elided_sweep_follows_a_residency_flip_and_a_shared_member():
    """A member's touch drops from 800 to 80 ns, then another pays the
    shared-endpoint lock: both change the sweep's cost mid-spin."""
    def scenario(cluster, bundle, thr, t0):
        sim = cluster.sim
        first, _, last = bundle.endpoints

        def flip():
            first.state.residency = Residency.ONHOST_RO

        first.state.residency = Residency.ONNIC_RW
        before = bundle._sweep_ns()
        sim.schedule(10_101, flip)
        sim.schedule(20_202, last.set_shared)
        value = yield from _sweep(thr, bundle, lambda: False, deadline=t0 + us(40))
        return value, before, bundle._sweep_ns()

    out = _elided_equals_stepped(scenario, bundled=True)
    cfg = ClusterConfig()
    (_, rotation), before, after = out["value"]
    assert after - before == cfg.shared_ep_lock_ns - (cfg.poll_resident_ns - cfg.poll_host_ns)
    assert rotation == out["polls"] % 3


def test_elided_sweep_returns_at_its_deadline():
    def scenario(cluster, bundle, thr, t0):
        return (yield from _sweep(thr, bundle, lambda: False, deadline=t0 + us(33)))

    out = _elided_equals_stepped(scenario, bundled=True)
    (value, rotation) = out["value"]
    assert value is None and out["returned_at"] >= us(33)
    assert out["member_polls"] == [out["polls"]] * 3 and rotation == out["polls"] % 3
