"""Duplicate-suppression window sizing (``ClusterConfig.dup_window``).

The receiver remembers the last ``dup_window`` delivered message ids per
peer; a retransmitted copy of something already delivered is re-ACKed
without redelivery — that memory is what makes delivery exactly once
across unbind/rebind (Section 3.2 / 5.3).  The window is finite, so an
undersized one *can* forget a delivery while its lost ACK is still being
retried, and the copy then delivers twice.  These tests pin both sides:
the chaos checker catches the double delivery when the window is starved,
and the default (512, vs 32 channels x 1 outstanding each) is safe under
heavy retransmission.
"""

import tracemalloc

import pytest

from repro.chaos import ScheduleGenerator, chaos_config, run_chaos
from repro.cluster import ClusterConfig
from repro.nic.channels import RxPeerState


def _loss_ramp(seed):
    gen = ScheduleGenerator(seed, num_hosts=8, num_spines=2, num_procs=4,
                            num_eps=4, duration_ns=20_000_000, profile="brutal")
    return gen.generate("loss_ramp")


def test_window_evicts_oldest_first():
    peer = RxPeerState(3, window=4)
    for msg_id in range(1, 6):
        peer.record_delivery(msg_id)
    assert not peer.is_duplicate(1)  # overflowed out — would redeliver
    assert all(peer.is_duplicate(m) for m in (2, 3, 4, 5))


def test_window_stores_ids_packed():
    # 64 peers, each past its 512-id window, ids drawn from one global
    # counter as the firmware's are: each remembered id costs at most 24 B
    # (two packed 8-byte copies plus array slack), where a dict of int
    # objects costs well over 100 B.
    peers_n, window = 64, RxPeerState.WINDOW
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        peers = [RxPeerState(p, window=window) for p in range(peers_n)]
        msg_id = 10**9
        for _ in range(window + 100):
            for peer in peers:
                msg_id += 1
                peer.record_delivery(msg_id)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(peer.is_duplicate(msg_id - k) for k, peer in enumerate(reversed(peers)))
    per_id = used / (peers_n * window)
    assert per_id <= 24, f"{per_id:.1f} B per remembered id"


def test_window_depth_comes_from_config():
    assert ClusterConfig().dup_window == RxPeerState.WINDOW == 512
    with pytest.raises(ValueError):
        ClusterConfig(dup_window=0).validate()


def test_starved_window_double_delivers_and_checker_flags_it():
    # window=1 with 32 concurrent channels per pair: a delivery on one
    # channel evicts the memory of another channel's delivery while that
    # ACK is still lost in the ramp — the retransmitted copy delivers
    # twice, and the trace checker must call it out.
    report = run_chaos(_loss_ramp(1), "pairwise",
                       cfg=chaos_config(1, num_hosts=8, dup_window=1))
    assert report.duplicates > 0
    assert any(v.invariant.startswith("I2") for v in report.violations)


def test_default_window_survives_the_same_storm():
    # identical seed/scenario/workload, default window: exactly once holds
    report = run_chaos(_loss_ramp(1), "pairwise")
    assert report.duplicates == 0
    assert report.ok, report.violations[:4]
