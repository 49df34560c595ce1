"""Property-based tests (hypothesis) on core invariants."""

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.myrinet import FatTreeTopology
from repro.nic.channels import RxPeerState, TxChannel, backoff_ns
from repro.sim import Simulator, Store
from repro.sim.rng import RngStreams


# --------------------------------------------------------------- sim kernel
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.schedule(d, fired.append, (d, i))
    sim.run()
    assert fired == sorted(fired, key=lambda t: (t[0], t[1]))
    assert sim.now == max(delays)


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=10),
)
def test_store_preserves_fifo_any_capacity(items, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    out = []

    def producer():
        for x in items:
            yield store.put(x)

    def consumer():
        for _ in items:
            out.append((yield store.get()))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert out == items


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 1000)), min_size=2, max_size=40))
def test_simulation_is_deterministic(ops):
    def run_once():
        sim = Simulator()
        trace = []

        def worker(wid, steps):
            for k, d in enumerate(steps):
                yield sim.timeout(d)
                trace.append((sim.now, wid, k))

        by_worker = {}
        for wid, delay in ops:
            by_worker.setdefault(wid, []).append(delay)
        for wid, steps in by_worker.items():
            sim.spawn(worker(wid, steps))
        sim.run()
        return trace

    assert run_once() == run_once()


# ----------------------------------------------------------------- channels
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=2**32))
def test_backoff_bounded_and_positive(consecutive, seed):
    cfg = ClusterConfig()
    rng = random.Random(seed)
    ns = backoff_ns(cfg, consecutive, rng)
    assert ns >= 1_000
    # never earlier than the nominal timeout; capped at 2x the max backoff
    cap = max(cfg.retrans_backoff_max_us, cfg.retrans_timeout_us)
    assert ns <= cap * 2_000
    if consecutive == 0:
        assert ns >= cfg.retrans_timeout_us * 1_000


@given(st.lists(st.integers(min_value=1, max_value=2_000), min_size=1, max_size=300))
def test_rx_peer_dedup_never_accepts_twice(msg_ids):
    peer = RxPeerState(0)
    delivered = []
    for mid in msg_ids:
        if not peer.is_duplicate(mid):
            delivered.append(mid)
            peer.record_delivery(mid)
    # within the dedup window, each id delivered at most once
    assert len(delivered) == len(set(delivered))


class _ReferenceWindow:
    """The duplicate window as an insertion-ordered dict capped at ``window``."""

    def __init__(self, window):
        self.window = window
        self.epoch = 0
        self.delivered = OrderedDict()

    def observe_epoch(self, epoch):
        if epoch != self.epoch:
            self.epoch = epoch
            self.delivered.clear()
            return True
        return False

    def is_duplicate(self, msg_id):
        return msg_id in self.delivered

    def record_delivery(self, msg_id):
        self.delivered[msg_id] = None
        while len(self.delivered) > self.window:
            self.delivered.popitem(last=False)


#: one receiver step: a new id some way above the last (reordered when
#: the offset is negative), a copy of an id recorded earlier, a
#: re-recording of one, or an epoch flip
_window_steps = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.integers(min_value=-40, max_value=6)),
        st.tuples(st.just("copy"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("rerecord"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("epoch"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=400,
)


@given(st.sampled_from([1, 2, 3, 64, 512]), _window_steps)
@settings(max_examples=150, deadline=None)
def test_rx_peer_window_matches_ordered_dict_model(window, steps):
    peer, ref = RxPeerState(0, window=window), _ReferenceWindow(window)
    seen, top = [], 1_000
    for op, arg in steps:
        if op == "epoch":
            assert peer.observe_epoch(arg) == ref.observe_epoch(arg)
            continue
        if op == "new":
            top += max(arg, 1)
            msg_id = top + min(arg, 0)
        elif not seen:
            continue
        else:
            msg_id = seen[arg % len(seen)]
        assert peer.is_duplicate(msg_id) == ref.is_duplicate(msg_id)
        if op == "rerecord" or not ref.is_duplicate(msg_id):
            peer.record_delivery(msg_id)
            ref.record_delivery(msg_id)
            seen.append(msg_id)
        oldest = next(iter(ref.delivered), top)
        for probe in (msg_id - 1, msg_id + 1, top + 1, oldest, *seen[-4:]):
            assert peer.is_duplicate(probe) == ref.is_duplicate(probe)
    remembered = sorted(ref.delivered)
    assert all(peer.is_duplicate(m) for m in remembered)
    assert not any(peer.is_duplicate(m) for m in set(seen) - set(remembered))


@given(st.booleans(), st.integers(min_value=0, max_value=1))
def test_channel_reset_orphans_everything(busy, seq):
    from repro.nic.message import Message, MsgKind

    ch = TxChannel(peer=1, index=0)
    msg = Message(src_node=0, src_ep=1, dst_node=1, dst_ep=1, key=0, kind=MsgKind.REQUEST)
    ch.seq = seq
    if busy:
        ch.outstanding = msg
        ch.arm(0, 1_000)
    orphans = ch.reset(epoch=2)
    assert orphans == ([msg] if busy else [])
    assert ch.idle and ch.deadline_ns is None
    assert ch.epoch == 2 and ch.seq == 0


# ----------------------------------------------------------------- topology
@given(st.integers(min_value=2, max_value=120), st.integers(min_value=0, max_value=31))
@settings(max_examples=40)
def test_every_pair_routable_on_every_channel(num_hosts, channel):
    cfg = ClusterConfig(num_hosts=num_hosts)
    topo = FatTreeTopology(Simulator(), cfg)
    rng = random.Random(num_hosts * 37 + channel)
    for _ in range(10):
        a, b = rng.randrange(num_hosts), rng.randrange(num_hosts)
        route = topo.route(a, b, channel)
        assert route is not None
        if a == b:
            assert route == []
        else:
            # route alternates host/leaf/spine links and ends at b
            assert route[0] is topo.host_up[a]
            assert route[-1] is topo.host_down[b]
            assert len(route) in (2, 4)


@given(st.integers(min_value=2, max_value=100))
@settings(max_examples=30)
def test_route_static_per_channel(num_hosts):
    """Channels are statically bound to routes (Section 5.3)."""
    topo = FatTreeTopology(Simulator(), ClusterConfig(num_hosts=num_hosts))
    a, b = 0, num_hosts - 1
    r1 = topo.route(a, b, 3)
    r2 = topo.route(a, b, 3)
    assert [l.name for l in r1] == [l.name for l in r2]


# --------------------------------------------------------------------- rng
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible_and_independent(seed, name):
    a = RngStreams(seed).stream(name)
    b = RngStreams(seed).stream(name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    other = RngStreams(seed).stream(name + "_x")
    # different names give (almost surely) different sequences
    assert [RngStreams(seed).stream(name).random() for _ in range(1)] != [other.random() + 1]


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=64))
@settings(max_examples=30)
def test_config_sweep_roundtrip(num_hosts, frames):
    cfg = ClusterConfig(num_hosts=num_hosts, endpoint_frames=min(frames, 128))
    cfg.validate()
    cfg2 = cfg.with_(seed=42)
    assert cfg2.num_hosts == num_hosts
    assert cfg.seed != 42 or cfg2.seed == 42
