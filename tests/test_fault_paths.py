"""Fault-path coverage: corruption, crash/reboot, return-to-sender (§3.2, §4.3).

The paper's error model draws one sharp line: *transient* faults (lost or
corrupted packets, brief outages) are masked by the transport, while
messages for endpoints that stay unreachable past the declare-dead timer
come back to the sender and invoke the undeliverable handler.  These
tests drive both sides of that line through the :class:`FaultInjector`,
and check that injected faults land on the same :class:`TraceBus`
timeline as the transport events they perturb: the ``fault.inject``
events are the injector's only record.
"""

from repro.am import parallel_vnet
from repro.cluster import Cluster, ClusterConfig
from repro.sim import ms, us


def _ordered_cfg(**kw):
    """Single-channel config so arrival order must equal send order."""
    return ClusterConfig(
        num_hosts=4,
        channels_per_pair=1,
        max_consecutive_retrans=1000,
        dead_timeout_ms=60_000.0,
        **kw,
    )


def test_corruption_is_masked_by_crc_and_retransmission():
    cluster = Cluster(_ordered_cfg(seed=7))
    cluster.faults.set_corruption(0.15)
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    got, returned = [], []
    ep0.undeliverable_handler = lambda msg, reason: returned.append(reason)
    nmsgs = 20

    def handler(token, i):
        got.append(i)

    def sender(thr):
        for i in range(nmsgs):
            yield from ep0.request(thr, 1, handler, i)
            yield from ep0.poll(thr, limit=4)

    def receiver(thr):
        while len(got) < nmsgs:
            yield from ep1.poll(thr, limit=8)
            yield from thr.compute(us(5))

    cluster.node(1).start_process().spawn_thread(receiver)
    cluster.node(0).start_process().spawn_thread(sender)
    sim = cluster.sim
    sim.run(until=sim.now + ms(10_000), stop=lambda: len(got) >= nmsgs)

    assert got == list(range(nmsgs))  # masked: exactly once, in order
    assert returned == []
    # the defensive error checking actually caught corrupted packets
    total_crc_drops = sum(n.nic.stats.crc_drops for n in cluster.nodes)
    assert total_crc_drops > 0


def test_dead_endpoint_returns_to_sender_while_loss_stays_masked():
    """Crash one destination mid-stream under packet loss: messages to the
    dead node come back with a reason, messages to the live node all
    arrive — loss never surfaces, death always does."""
    cluster = Cluster(ClusterConfig(num_hosts=4, seed=9))
    cluster.faults.set_loss(0.05)
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1, 2]), "setup")
    ep0, ep1, ep2 = vnet[0], vnet[1], vnet[2]
    sim = cluster.sim
    delivered_live, returned = [], []
    ep0.undeliverable_handler = lambda msg, reason: returned.append(reason)
    nmsgs = 5

    def live_handler(token, i):
        delivered_live.append(i)

    def dead_handler(token, i):
        pass

    def receiver(ep):
        def body(thr):
            while True:
                yield from ep.poll(thr, limit=8)
                yield from thr.compute(us(10))

        return body

    def sender(thr):
        # phase 1: both destinations alive — everything flows
        for i in range(nmsgs):
            yield from ep0.request(thr, 1, dead_handler, i)
            yield from ep0.request(thr, 2, live_handler, i)
            yield from ep0.poll(thr, limit=4)
        while len(delivered_live) < nmsgs:
            yield from ep0.poll(thr, limit=8)
            yield from thr.compute(us(10))
        # phase 2: node 1 dies; its traffic must bounce, node 2's must not
        cluster.crash_node(1)
        for i in range(nmsgs, 2 * nmsgs):
            yield from ep0.request(thr, 1, dead_handler, i)
            yield from ep0.request(thr, 2, live_handler, i)
            yield from ep0.poll(thr, limit=4)
        while len(returned) < nmsgs or len(delivered_live) < 2 * nmsgs:
            yield from ep0.poll(thr, limit=8)
            yield from thr.compute(us(20))

    cluster.node(1).start_process().spawn_thread(receiver(ep1))
    cluster.node(2).start_process().spawn_thread(receiver(ep2))
    snd = cluster.node(0).start_process().spawn_thread(sender)
    sim.run(until=sim.now + ms(5_000), stop=lambda: snd.finished)
    assert snd.finished, "sender did not converge"

    # loss masked: every message to the live node arrived exactly once
    assert sorted(delivered_live) == list(range(2 * nmsgs))
    # death surfaced: every post-crash message to node 1 came back
    assert len(returned) == nmsgs
    assert all(r == "timeout" for r in returned)
    assert ep0.stats.undeliverable == nmsgs
    # and the failed sends' credits were restored
    assert ep0.credits_available(1) == cluster.cfg.user_credits


def test_crash_reboot_cycle_restores_reachability():
    cluster = Cluster(ClusterConfig(num_hosts=4))
    bus = cluster.enable_tracing()
    cluster.crash_node(2)
    assert 2 in cluster.network._dead_nics
    cluster.reboot_node(2)
    assert 2 not in cluster.network._dead_nics
    # the bus records both injections, attributed to the node they hit
    notes = [(ev.node, ev.get("what")) for ev in bus.select("fault.inject")]
    assert notes == [(2, "crash node2"), (2, "reboot node2")]


def test_crashed_nic_sends_nothing():
    """A firmware step already asleep in its instruction cost when the NI
    crashes finishes afterwards; what it sends must not leave the board.
    NI 0 crashes 2,803 us into a request/reply stream, mid-step."""
    cluster = Cluster(ClusterConfig(num_hosts=4))
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    sim, net = cluster.sim, cluster.network
    nic0 = cluster.node(0).nic
    sent_dead, delivered = set(), set()
    send, deliver = net.send, net._deliver

    def spy_send(pkt):
        if pkt.src_nic == 0 and not nic0.alive:
            sent_dead.add(pkt.xmit_id)
        send(pkt)

    def spy_deliver(pkt):
        delivered.add(pkt.xmit_id)
        return deliver(pkt)

    net.send, net._deliver = spy_send, spy_deliver

    def handler(token, i):
        token.reply(lambda t, i: None, i)

    def sender(thr):
        for i in range(200):
            yield from ep0.request(thr, 1, handler, i, nbytes=16)
            yield from ep0.poll(thr, limit=4)

    def receiver(thr):
        while True:
            yield from ep1.poll(thr, limit=8)
            yield from thr.compute(us(5))

    cluster.node(1).start_process().spawn_thread(receiver)
    cluster.node(0).start_process().spawn_thread(sender)
    t0 = sim.now
    sim.schedule(us(2_803), cluster.crash_node, 0)
    sim.schedule(us(2_803) + ms(1), cluster.reboot_node, 0)
    sim.run(until=t0 + ms(20))

    assert sent_dead, "the crash no longer lands mid-step"
    assert not sent_dead & delivered
    assert net.stats.dropped_dead_nic >= len(sent_dead)


def test_fault_injections_share_the_trace_bus_timeline():
    """Satellite for the injector rework: faults report through the
    TraceBus as ``fault.inject`` events, interleaved in simulated-time
    order with the transport events they disturb."""
    cluster = Cluster(_ordered_cfg(seed=5))
    bus = cluster.enable_tracing()
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    got = []
    sim = cluster.sim

    cluster.faults.set_loss(0.1)
    # mid-stream: after the first sends hit the wire (~3.3 ms incl. the
    # endpoint page-in), before the paced sender finishes
    t_down, t_up = sim.now + ms(5), sim.now + ms(7)
    cluster.faults.at(t_down, cluster.faults.set_host_link, 1, False)
    cluster.faults.at(t_up, cluster.faults.set_host_link, 1, True)
    nmsgs = 10

    def handler(token, i):
        got.append(i)

    def sender(thr):
        for i in range(nmsgs):
            yield from ep0.request(thr, 1, handler, i)
            yield from ep0.poll(thr, limit=4)
            yield from thr.sleep(us(300))

    def receiver(thr):
        while len(got) < nmsgs:
            yield from ep1.poll(thr, limit=8)
            yield from thr.compute(us(5))

    cluster.node(1).start_process().spawn_thread(receiver)
    cluster.node(0).start_process().spawn_thread(sender)
    sim.run(until=sim.now + ms(10_000), stop=lambda: len(got) >= nmsgs)
    assert got == list(range(nmsgs))

    faults = bus.select("fault.inject")
    assert [f.get("action") for f in faults] == [
        "set_loss", "hostlink", "hostlink",
    ]
    # the hostlink events carry the node they hit
    assert faults[1].node == 1 and faults[2].node == 1
    # the scheduled injections fired at their programmed times...
    assert faults[1].ts == t_down and faults[2].ts == t_up
    # ...inside the transport's timeline, not on some side channel
    pkt_ts = [e.ts for e in bus.select("pkt.")]
    assert min(pkt_ts) < faults[1].ts < max(pkt_ts)
    # one bus, one monotonic record
    all_ts = [e.ts for e in bus.events]
    assert all_ts == sorted(all_ts)
    assert [f.get("what") for f in faults] == [
        "loss=0.1", "hostlink1 down", "hostlink1 up",
    ]


# ---------------------------------------------------------------------------
# Mid-bulk-transfer faults: the staging-DMA window (§5.1) is the risky one —
# a fragment lives between "committed to a channel" and "on the wire" while
# the SBus READ runs, and the channel-reset guard in ``_bulk_staged`` must
# neither transmit it after a reset nor lose track of it.
# ---------------------------------------------------------------------------

def test_spine_hotswap_mid_bulk_transfer():
    """Pull half the spines while a cross-leaf bulk stream is in flight:
    the reconfiguration is transient, so every transfer must reassemble
    exactly once and nothing may return to the sender."""
    from repro.chaos import DeliveryChecker

    cluster = Cluster(ClusterConfig(num_hosts=8, seed=11, dead_timeout_ms=60_000.0,
                                    max_consecutive_retrans=4))
    bus = cluster.enable_tracing()
    sim = cluster.sim
    # hosts 0 and 4 sit on different leaves -> all data crosses the spines
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 4]), "setup")
    src, dst = vnet[0], vnet[1]
    payload, ntransfers = 24_576, 8
    done, returned = [], []
    src.undeliverable_handler = lambda msg, reason: returned.append(reason)

    def handler(token, i):
        done.append(i)

    def swapper():
        # wait until the stream is demonstrably mid-flight, then yank
        while len(done) < 2:
            yield sim.timeout(us(50))
        for s in (0, 1):
            cluster.faults.set_spine(s, up=False)
        yield sim.timeout(ms(3))
        for s in (0, 1):
            cluster.faults.set_spine(s, up=True)

    def sender(thr):
        need = -(-payload // cluster.cfg.mtu_bytes)
        for i in range(ntransfers):
            while src.credits_available(1) < need:
                yield from src.poll(thr, limit=8)
                yield from thr.sleep(us(20))
            yield from src.request(thr, 1, handler, i, nbytes=payload)
        while src.credits_available(1) < cluster.cfg.user_credits:
            yield from src.poll(thr, limit=8)
            yield from thr.sleep(us(20))

    def receiver(thr):
        while len(done) < ntransfers:
            yield from dst.poll(thr, limit=8)
            yield from thr.sleep(us(20))

    sim.spawn(swapper())
    cluster.node(4).start_process().spawn_thread(receiver)
    snd = cluster.node(0).start_process().spawn_thread(sender)
    sim.run(until=sim.now + ms(5_000), stop=lambda: snd.finished)
    assert snd.finished, "bulk stream did not survive the hot-swap"

    # masked: every transfer reassembled exactly once, none bounced
    assert sorted(done) == list(range(ntransfers))
    assert returned == []
    # the swap really disturbed the stream (it was not a no-op)
    assert cluster.node(0).nic.stats.retransmissions > 0
    # and the fragment-level timeline satisfies the delivery contract
    assert DeliveryChecker(bus.events).check() == []
    bus.detach()


def _bulk_stream_run(crash_at=None, reboot_at=None, seed=23):
    """One traced cross-leaf bulk stream 0 -> 4; optionally crash/reboot
    the *sender* node at absolute sim times. Returns (events, done)."""
    from repro.am.errors import EndpointFreedError
    from repro.cluster import reset_global_ids

    reset_global_ids()  # msg ids must match between paired runs
    cluster = Cluster(ClusterConfig(num_hosts=8, seed=seed, dead_timeout_ms=8.0))
    bus = cluster.enable_tracing()
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 4]), "setup")
    src, dst = vnet[0], vnet[1]
    payload, ntransfers = 24_576, 6
    done = []
    stop = {"flag": False}

    def handler(token, i):
        done.append(i)

    def sender(thr):
        need = -(-payload // cluster.cfg.mtu_bytes)
        try:
            for i in range(ntransfers):
                deadline = sim.now + ms(30)
                while src.credits_available(1) < need:
                    yield from src.poll(thr, limit=8)
                    yield from thr.sleep(us(20))
                    if sim.now >= deadline:
                        return  # credits died with the crash: give up
                yield from src.request(thr, 1, handler, i, nbytes=payload)
        except EndpointFreedError:
            return  # our node rebooted under us: clean exit

    def receiver(thr):
        try:
            while not stop["flag"]:
                yield from dst.poll(thr, limit=8)
                yield from thr.sleep(us(20))
        except EndpointFreedError:
            return

    cluster.node(4).start_process().spawn_thread(receiver)
    cluster.node(0).start_process().spawn_thread(sender)
    if crash_at is not None:
        cluster.faults.at(crash_at, cluster.crash_node, 0)
        cluster.faults.at(reboot_at, cluster.reboot_node, 0)
    sim.run(until=sim.now + ms(60))
    stop["flag"] = True
    sim.run(until=sim.now + ms(1))
    events = list(bus.events)
    bus.detach()
    return events, done


def test_sender_crash_lands_mid_bulk_staging():
    """Crash the sender while a fragment is staging through the SBus READ
    DMA: the ``_bulk_staged`` guard must drop the staged packet (it never
    reaches the wire) and the reboot must resolve it — no double
    delivery, no leaked message."""
    from repro.chaos import DeliveryChecker

    cfg = ClusterConfig(num_hosts=8)
    small_max = cfg.small_payload_max_bytes

    # pass 1 (healthy): find an established bulk fragment's pkt.tx — the
    # trace event fires *before* the staging DMA starts, so the wire send
    # happens at least sbus_read_ns(frag) later
    events, done = _bulk_stream_run()
    assert sorted(done) == list(range(6))
    bulk_txs = [e for e in events
                if e.kind == "pkt.tx" and e.node == 0 and e.get("nbytes") > small_max]
    assert len(bulk_txs) >= 3
    probe = bulk_txs[2]
    staging_ns = cfg.sbus_read_ns(probe.get("nbytes"))
    t_crash = probe.ts + staging_ns // 2  # strictly inside the staging DMA

    # pass 2 (same seed => identical prefix): crash mid-staging
    events2, done2 = _bulk_stream_run(crash_at=t_crash, reboot_at=t_crash + 3_000_000)
    prefix = [e for e in events2 if e.ts <= probe.ts and e.kind == "pkt.tx"]
    assert any(e.get("msg") == probe.get("msg") for e in prefix), \
        "determinism broke: paired run diverged before the crash"

    # the staged fragment never hit the wire: no receiver ever saw it
    rx_msgs = [e.get("msg") for e in events2 if e.kind == "pkt.rx"]
    assert probe.get("msg") not in rx_msgs
    # ...and it did not leak: the timeline still resolves every accepted
    # message (the reboot returns the staged one) with no double delivery
    assert DeliveryChecker(events2).check() == []
    # the interrupted stream delivered strictly less, but nothing twice
    assert len(done2) < 6 and len(set(done2)) == len(done2)
