"""Unit tests for the AM-II programming interface (Section 3)."""

import pytest

from repro.am import BadTranslationError, Bundle, parallel_vnet, star_vnet, new_endpoint
from repro.am.endpoint import BLOCK_NS, poll_until
from repro.cluster import Cluster, ClusterConfig
from repro.nic import Residency
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

    def poll(thr, limit):
        polled_at.append(sim.now)
        yield from thr.compute(500)
        return 0

    def body(thr):
        t0 = sim.now
        value = yield from poll_until(thr, lambda: False, poll,
                                      lambda: thr.compute(1_000), deadline=t0 + 4_000)
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
        ep0._credits[1] = 1

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
