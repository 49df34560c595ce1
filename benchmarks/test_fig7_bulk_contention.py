"""Figure 7: 8 KB bulk-transfer throughput under contention.

Paper shapes asserted here:
  * OneVN reaches ~42.8 MB/s aggregate (the SBus-limited server ceiling);
  * per-client shares are proportional;
  * with 96 frames (one-to-one connections, no shared-endpoint overruns)
    ST matches or surpasses OneVN;
  * 8-frame configurations survive overcommitment (>8 clients) with
    re-mapping active, degrading gracefully rather than collapsing.
"""

import pytest

PEAK_MB_S = 44.0  # the Figure 4 delivered ceiling


def test_fig7_onevn_aggregate_ceiling(once, benchmark, figure):
    r = once(figure, "fig7/one_vn@4")
    benchmark.extra_info["mb_s"] = r.aggregate_mb_s
    assert 36.0 <= r.aggregate_mb_s <= 47.0  # paper: ~42.8


def test_fig7_onevn_proportional(once, benchmark, figure):
    r = once(figure, "fig7/one_vn@4")
    mean = sum(r.per_client_msgs_s) / 4
    benchmark.extra_info["per_client"] = r.per_client_msgs_s
    # bulk shares are coarser than small-message shares (a single 8 KB
    # message is ~190 us of server SBus time), but every client gets a
    # substantial fraction and nobody is starved
    for per in r.per_client_msgs_s:
        assert 0.4 * mean <= per <= 2.2 * mean


def test_fig7_st96_matches_or_beats_onevn(once, benchmark, figure):
    def pair():
        return figure("fig7/one_vn@4"), figure("fig7/st@4x96")

    onevn, st96 = once(pair)
    benchmark.extra_info.update(onevn=onevn.aggregate_mb_s, st96=st96.aggregate_mb_s)
    # one-to-one connections avoid shared-endpoint overruns (§6.4)
    assert st96.aggregate_mb_s >= 0.95 * onevn.aggregate_mb_s


def test_fig7_st8_survives_overcommit(once, benchmark, figure):
    r = once(figure, "fig7/st@10x8")
    benchmark.extra_info.update(mb_s=r.aggregate_mb_s, remaps_s=r.remaps_per_s)
    assert r.remaps_per_s > 10           # re-mapping active
    assert r.aggregate_mb_s >= 0.3 * PEAK_MB_S  # degrades, does not collapse


def test_fig7_mt8_survives_overcommit(once, benchmark, figure):
    r = once(figure, "fig7/mt@10x8")
    benchmark.extra_info.update(mb_s=r.aggregate_mb_s, remaps_s=r.remaps_per_s)
    assert r.aggregate_mb_s >= 0.3 * PEAK_MB_S
