"""The sharded PDES kernel: determinism contract, windowing, ingress.

DESIGN.md §13 promises bit-identical :meth:`ShardRunResult.checks`
(digest + delivery count + dispatched events) across both executors —
the shared-heap sequential baseline and the in-process windowed
scheduler.  These tests pin
that contract across seeds, scenarios and shard counts, then unit-test
the load-bearing pieces: canonical trunk ingress ordering, same-host
serialization, the conservative-window violation guard, and the
config-level invariants that make the lookahead sound.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.sim import SimError, Simulator
from repro.sim.sharded import (SHARD_SCENARIOS, Shard, ShardSpec,
                               ShardedSimulator, TrunkIngress)

#: small-but-nontrivial workload: every scenario still crosses shards
FAST = dict(waves=3, stagger_ns=4_000, pad_ns=12_000)


def make_sharded(num_shards, scenario="uniform", seed=7, hosts_per_shard=4,
                 **params):
    cfg = ClusterConfig(num_hosts=num_shards * hosts_per_shard,
                        num_shards=num_shards, seed=seed, engine="sharded")
    return ShardedSimulator(cfg, scenario=scenario, params={**FAST, **params})


# ------------------------------------------------- the determinism contract
@pytest.mark.parametrize("scenario", sorted(SHARD_SCENARIOS))
def test_one_shard_sharded_equals_sequential_across_seeds(scenario):
    """Degenerate case, propertized: with one shard the windowed
    executor must reproduce the plain shared-heap run bit-for-bit, for
    every seed and scenario — no trunk traffic exists to hide behind."""
    for seed in range(10):
        ss = make_sharded(1, scenario, seed=seed)
        seq = ss.run("sequential")
        win = ss.run("inprocess")
        assert win.checks == seq.checks, (scenario, seed)
        assert seq.events > 0 and seq.deliveries


@pytest.mark.parametrize("scenario", sorted(SHARD_SCENARIOS))
@pytest.mark.parametrize("shards", [2, 4])
def test_windowed_matches_sequential(scenario, shards):
    ss = make_sharded(shards, scenario)
    seq = ss.run("sequential")
    win = ss.run("inprocess")
    assert win.checks == seq.checks
    # Cross-shard traffic actually happened: the digest is not
    # vacuously equal over a trunk nobody used.
    assert sum(b["handoffs"] for b in win.boundary_stats) > 0
    assert any(rec[0] == "T" for rec in win.deliveries)
    assert win.barriers > 0


def test_four_shard_chaos_storm_replay_bit_identity():
    """The flagship gate: 4-shard chaos storm — link flaps, express
    demotions, trunk replies — is bit-identical across the sequential
    and windowed executors, and replays to the same digest."""
    ss = make_sharded(4, "chaos_storm", seed=11)
    seq = ss.run("sequential")
    win = ss.run("inprocess")
    assert win.checks == seq.checks
    # replay: a fresh build of the same spec reproduces the digest
    replay = make_sharded(4, "chaos_storm", seed=11).run("inprocess")
    assert replay.checks == seq.checks


def test_seed_changes_digest():
    # uniform draws no RNG, so seed sensitivity lives in the seeded
    # flap schedule of chaos_storm
    d7 = make_sharded(2, "chaos_storm", seed=7).run("inprocess").digest()
    d8 = make_sharded(2, "chaos_storm", seed=8).run("inprocess").digest()
    assert d7 != d8


def test_parallelism_reported_on_windowed_runs():
    win = make_sharded(4, "uniform").run("inprocess")
    assert win.crit_events > 0
    assert win.parallelism() > 1.0
    assert len(win.shard_events) == 4
    assert sum(win.shard_events) == win.events
    # sequential runs carry no windowed schedule
    seq = make_sharded(4, "uniform").run("sequential")
    assert seq.parallelism() == 1.0


def test_unknown_scenario_and_executor_raise():
    with pytest.raises(SimError, match="unknown shard scenario"):
        ShardedSimulator(ClusterConfig(num_hosts=8, num_shards=2),
                         scenario="nope").run("sequential")
    with pytest.raises(SimError, match="unknown shard executor"):
        make_sharded(2).run("warp")


def test_num_hosts_must_divide_into_shards():
    with pytest.raises(SimError, match="divide evenly"):
        ShardedSimulator(ClusterConfig(num_hosts=10, num_shards=4))


# ------------------------------------------------------------ trunk ingress
def one_shard(num_shards=2, shard_id=1, hosts_per_shard=4, scenario="uniform"):
    cfg = ClusterConfig(num_hosts=num_shards * hosts_per_shard,
                        num_shards=num_shards, engine="sharded")
    spec = ShardSpec(shard_id, num_shards, hosts_per_shard, scenario,
                     dict(FAST, waves=0, reply=False), cfg)
    return Shard(spec)


def rec(arrive, src_shard=0, seq=0, dst_g=4, nbytes=64, mid=1, kind=0):
    return (arrive, src_shard, seq, 0, dst_g, mid, nbytes, kind)


def test_ingress_serializes_same_host_arrivals_onto_distinct_ticks():
    shard = one_shard()
    # Three records, same arrival tick, same destination host, pushed
    # out of canonical order — delivery must come back in (arrive,
    # src_shard, seq) order on strictly increasing ticks.
    shard.ingress.push(rec(5_000, src_shard=0, seq=1, mid=12))
    shard.ingress.push(rec(5_000, src_shard=0, seq=0, mid=11))
    shard.sim.run()
    trunk = [d for d in shard.deliveries if d[0] == "T"]
    assert [d[4] for d in trunk] == [11, 12]
    t0, t1 = trunk[0][1], trunk[1][1]
    assert t1 >= t0 + shard.boundary.ingress_gap_ns(64)
    assert shard.boundary.ingress_gap_ns(0) >= 1


def test_ingress_different_hosts_deliver_at_arrival():
    shard = one_shard()
    shard.ingress.push(rec(5_000, dst_g=4, mid=1))
    shard.ingress.push(rec(5_000, dst_g=5, mid=2))
    shard.sim.run()
    trunk = sorted(d for d in shard.deliveries if d[0] == "T")
    assert [d[1] for d in trunk] == [5_000, 5_000]


def test_conservative_window_violation_fails_loudly():
    shard = one_shard()
    shard.sim.run()  # now > 0 is irrelevant; now == arrive must raise
    with pytest.raises(SimError, match="conservative window violated"):
        shard.ingress.push(rec(shard.sim.now))


def test_trunk_request_schedules_reply_back_through_boundary():
    cfg = ClusterConfig(num_hosts=8, num_shards=2, engine="sharded")
    spec = ShardSpec(1, 2, 4, "uniform", dict(FAST, waves=0, reply=True), cfg)
    shard = Shard(spec)
    shard.ingress.push(rec(5_000, dst_g=4, mid=1, kind=0))
    shard.sim.run()
    # the reply leaves as a trunk record, never touching local fabric
    assert len(shard.outbox) == 1
    reply = shard.outbox[0]
    assert (reply[3], reply[4]) == (4, 0)  # src_g, dst_g swapped back
    assert reply[7] == 1  # KIND_RSP
    assert shard.net.stats.sent == 0
    assert shard.boundary.stats.handoffs == 1


# ------------------------------------------------------- config invariants
def test_validate_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        ClusterConfig(engine="quantum").validate()


def test_validate_rejects_lookahead_beyond_trunk():
    cfg = ClusterConfig(shard_trunk_latency_us=25.0, shard_lookahead_us=26.0)
    with pytest.raises(ValueError, match="must not exceed"):
        cfg.validate()


def test_validate_rejects_trunk_faster_than_fabric():
    with pytest.raises(ValueError, match="undercuts the fat-tree minimum"):
        ClusterConfig(shard_trunk_latency_us=0.001).validate()


def test_lookahead_defaults_to_trunk_base():
    cfg = ClusterConfig(shard_trunk_latency_us=25.0)
    assert cfg.shard_lookahead_ns == cfg.shard_trunk_base_ns
    cfg2 = ClusterConfig(shard_trunk_latency_us=25.0, shard_lookahead_us=10.0)
    assert cfg2.shard_lookahead_ns == 10_000


def test_validate_rejects_bad_shard_counts():
    with pytest.raises(ValueError, match="num_shards"):
        ClusterConfig(num_shards=0).validate()
