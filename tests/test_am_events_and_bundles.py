"""Event-mask and bundle behaviours (Section 3.3) in more depth."""

import pytest

from repro.am import Bundle, EndpointFreedError, parallel_vnet, new_endpoint
from repro.cluster import Cluster, ClusterConfig
from repro.nic.endpoint_state import Residency
from repro.nic.message import Message, MsgKind
from repro.sim import ms, us


def build(n=4, **kw):
    return Cluster(ClusterConfig(num_hosts=n, **kw))


def test_event_only_on_empty_to_nonempty_transition():
    """The NI notifies only when a message lands in an EMPTY queue, so a
    busy endpoint does not generate a wakeup per message."""
    cluster = build()
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "v")
    ep0, ep1 = vnet[0], vnet[1]
    ep1.set_event_mask({"recv"})
    got = []

    def handler(token, i):
        got.append(i)

    def sender(thr):
        for i in range(20):
            yield from ep0.request(thr, 1, handler, i)
        for _ in range(3000):
            yield from ep0.poll(thr)
            if ep0.credits_available(1) == cluster.cfg.user_credits:
                break
            yield from thr.compute(us(2))

    def receiver(thr):
        # deliberately slow consumer: the queue stays non-empty
        while len(got) < 20:
            yield from ep1.poll(thr, limit=4)
            yield from thr.compute(us(50))

    cluster.node(1).start_process().spawn_thread(receiver)
    cluster.node(0).start_process().spawn_thread(sender)
    cluster.run(until=cluster.sim.now + ms(500))
    assert len(got) == 20
    # far fewer notifications than messages
    assert cluster.node(1).driver.stats.events_delivered < 10


def test_returned_event_mask_wakes_waiter():
    """The 'returned' transition can also be sensitized (Section 3.3)."""
    cluster = build(dead_timeout_ms=10.0)
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "v")
    ep0 = vnet[0]
    ep0.map(5, (1, 99), key=1)  # nonexistent endpoint
    ep0.set_event_mask({"returned"})
    outcome = {}

    def body(thr):
        yield from ep0.request(thr, 5, None)
        woke = yield from ep0.wait(thr, timeout_ns=ms(400))
        outcome["woke"] = woke
        yield from ep0.poll(thr)
        outcome["undeliverable"] = ep0.stats.undeliverable

    t = cluster.node(0).start_process().spawn_thread(body)
    cluster.run(until=cluster.sim.now + ms(800))
    assert t.finished
    assert outcome["woke"] is True
    assert outcome["undeliverable"] == 1


def test_exclusive_endpoint_skips_lock_cost():
    cluster = build()
    ep = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "e")
    assert ep._lock_cost() == 0
    ep.set_shared(True)
    assert ep._lock_cost() == cluster.cfg.shared_ep_lock_ns
    ep.set_shared(False)
    assert ep._lock_cost() == 0


def test_bundle_wait_any_wakes_for_any_member():
    cluster = build()
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "v")
    sender_ep = vnet[1]
    ep_a = vnet[0]
    ep_b = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "b")
    sender_ep.map(7, ep_b.name, ep_b.tag)
    bundle = Bundle([ep_a, ep_b])
    got = []

    def handler(token, which):
        got.append(which)

    def service(thr):
        woke = yield from bundle.wait_any(thr, timeout_ns=ms(300))
        assert woke
        while not got:
            yield from bundle.poll_all(thr)
        return got[0]

    def sender(thr):
        yield from thr.sleep(ms(5))
        # send to the SECOND bundle member only
        yield from sender_ep.request(thr, 7, handler, "ep_b")
        for _ in range(2000):
            yield from sender_ep.poll(thr)
            if sender_ep.credits_available(7) == cluster.cfg.user_credits:
                break
            yield from thr.compute(us(2))

    t = cluster.node(0).start_process().spawn_thread(service)
    cluster.node(1).start_process().spawn_thread(sender)
    cluster.run(until=cluster.sim.now + ms(1_000))
    assert t.finished and t.result == "ep_b"


def _swept_bundle(cluster):
    """A node-0 bundle of a resident, an on-host and a shared on-host
    endpoint, plus the touch one sweep over it costs."""
    node = cluster.node(0)
    eps = [cluster.run_process(new_endpoint(node, rngs=cluster.rngs), f"e{i}") for i in range(3)]
    eps[0].state.residency = Residency.ONNIC_RW
    eps[2].set_shared(True)
    assert [ep.state.residency for ep in eps[1:]] == [Residency.ONHOST_RO] * 2
    return Bundle(eps), 800 + 80 + (80 + 400)


def _queue_reply(ep, handler):
    """Put a reply straight into ``ep``'s receive queue, as a delivery would."""
    st = ep.state
    st.recv_replies.append(Message(
        src_node=1, src_ep=0, dst_node=st.node, dst_ep=st.ep_id, key=st.tag,
        kind=MsgKind.REPLY, payload_bytes=0, is_bulk=False, body=(handler, (), {})))


def test_bundle_sweep_charges_its_touch_as_one_slice_and_rotates_once():
    """One ``poll_all`` charges every member's touch (800 ns resident,
    80 ns on-host, +400 ns lock when shared) as one CPU slice, counts a
    poll on every member and advances the rotation by one, whether or
    not a member had work; a freed member raises before any charge."""
    cluster = build(2)
    sim = cluster.sim
    cpu = cluster.node(0).cpu
    bundle, touch = _swept_bundle(cluster)
    eps = bundle.endpoints
    assert touch == bundle._sweep_ns()
    slices = []
    close = cpu.close

    def counting_close(owner, ns, priority=0):
        slices.append(ns)
        close(owner, ns, priority)

    cpu.close = counting_close
    got = []
    sweeps = []

    def service(thr):
        yield from thr.compute(1_000)  # take the CPU
        for work in (False, True, False, False):
            if work:
                _queue_reply(eps[2], lambda token: got.append(sim.now))
            polls = [ep.stats.polls for ep in eps]
            rotation = bundle._next
            slices.clear()
            t0 = sim.now
            n = yield from bundle.poll_all(thr)
            sweeps.append((n, slices[0], len(slices), sim.now - t0,
                           [ep.stats.polls - p for ep, p in zip(eps, polls)],
                           (bundle._next - rotation) % len(eps)))
        yield from cluster.node(0).driver.free_endpoint(eps[1].state)
        t0 = sim.now
        try:
            yield from bundle.poll_all(thr)
        except EndpointFreedError:
            return sim.now - t0

    t = cluster.node(0).start_process().spawn_thread(service)
    cluster.run(until=sim.now + ms(5))
    empty = (0, touch, 1, touch, [1, 1, 1], 1)
    assert sweeps[0] == sweeps[2] == sweeps[3] == empty
    n, first, nslices, _, polls, rotated = sweeps[1]
    assert (n, first, polls, rotated) == (1, touch, [1, 1, 1], 1)
    assert nslices > 1 and len(got) == 1  # the drain computed after the touch
    assert t.finished and t.result == 0  # raised, nothing charged


def test_paused_thread_sweep_waits_at_the_pause_gate():
    """A sweep begun while its thread is paused charges no CPU until the
    thread is resumed: it parks at the pause gate first."""
    cluster = build(2)
    sim = cluster.sim
    bundle, touch = _swept_bundle(cluster)
    spans = []
    box = {}

    def service(thr):
        yield from thr.compute(1_000)  # take the CPU
        for _ in range(6):
            t0, cpu0 = sim.now, thr.cpu_ns
            yield from bundle.poll_all(thr)
            spans.append((t0, sim.now, thr.cpu_ns - cpu0))

    t = cluster.node(0).start_process().spawn_thread(service)
    pause_at, resume_at = sim.now + 1_000 + touch + touch // 2, sim.now + us(50)

    def chaos():
        yield sim.timeout(pause_at - sim.now)
        t.pause()
        box["paused"] = sim.now
        yield sim.timeout(resume_at - sim.now)
        t.resume()

    sim.spawn(chaos())
    cluster.run(until=sim.now + ms(5))
    assert box["paused"] == pause_at
    assert len(spans) == 6 and all(cpu_ns == touch for _, _, cpu_ns in spans)
    parked = [s for s in spans if s[0] >= pause_at]
    assert parked and parked[0][1] >= resume_at + touch  # waited out the pause
    assert all(end - start == touch for start, end, _ in spans if start < pause_at)


def test_bundle_remove_and_empty_wait_rejected():
    cluster = build()
    ep = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "e")
    bundle = Bundle([ep])
    bundle.remove(ep)
    assert len(bundle) == 0

    def body(thr):
        try:
            yield from bundle.wait_any(thr)
        except ValueError:
            return "rejected"

    t = cluster.node(0).start_process().spawn_thread(body)
    cluster.run(until=cluster.sim.now + ms(10))
    assert t.result == "rejected"


@pytest.mark.parametrize("timeout_ns", [None, ms(5)], ids=["no_timeout", "timeout_5ms"])
@pytest.mark.parametrize("call", ["wait", "wait_any", "collective"])
def test_free_wakes_a_thread_blocked_on_the_endpoint(call, timeout_ns):
    """Freeing an endpoint releases a thread blocked on it in
    Endpoint.wait, Bundle.wait_any or Endpoint.collective: it raises
    EndpointFreedError at once instead of hanging or sleeping out its
    timeout (a lost wakeup)."""
    cluster = build(2, coll_timeout_ms=(timeout_ns or ms(50)) / ms(1))
    sim = cluster.sim
    ep = cluster.run_process(new_endpoint(cluster.node(0), rngs=cluster.rngs), "e")
    if call == "collective":
        # node 1 never joins the barrier: only the free or the
        # collective timeout can end the wait
        wait = lambda thr, timeout_ns: ep.collective(thr, "barrier", 1, (0, 1), 0)  # noqa: E731
    else:
        wait = ep.wait if call == "wait" else Bundle([ep]).wait_any
    seen = {}

    def waiter(thr):
        try:
            seen["returned"] = yield from wait(thr, timeout_ns=timeout_ns)
        except EndpointFreedError:
            seen["raised_at"] = sim.now

    def freer():
        yield sim.timeout(ms(1))
        yield from cluster.node(0).driver.free_endpoint(ep.state)
        seen["freed_at"] = sim.now

    t = cluster.node(0).start_process().spawn_thread(waiter)
    sim.spawn(freer())
    cluster.run(until=sim.now + ms(100))
    assert t.finished, "waiter never woke after the free"
    assert "returned" not in seen
    assert seen["raised_at"] <= seen["freed_at"]
