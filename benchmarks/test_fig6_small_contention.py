"""Figure 6: small-message throughput under contention.

Paper shapes asserted here:
  * the server's peak is ~78K msg/s (we measure ~74K);
  * every client obtains its proportional share (6a);
  * the credit mechanism prevents overruns for a single client, and
    overrun NACKing begins once multiple credit windows share the one
    endpoint (6b's degradation regime);
  * overcommitting an 8-frame interface (>8 clients) activates re-mapping
    at the paper's 200-300/s while the server keeps delivering a large
    fraction of peak;
  * the MT configuration is resilient to the number of frames.
"""

import pytest

PEAK_MSGS_S = 78_000.0


def test_fig6_single_client_reaches_peak(once, benchmark, figure):
    r = once(figure, "fig6/one_vn@1")
    benchmark.extra_info["msgs_s"] = r.aggregate_msgs_s
    assert 0.85 * PEAK_MSGS_S <= r.aggregate_msgs_s <= PEAK_MSGS_S
    assert r.overrun_nacks == 0  # credits prevent overrun at one window


def test_fig6_proportional_share(once, benchmark, figure):
    r = once(figure, "fig6/one_vn@4")
    mean = r.aggregate_msgs_s / 4
    benchmark.extra_info["per_client"] = r.per_client_msgs_s
    for per in r.per_client_msgs_s:
        assert abs(per - mean) / mean < 0.15  # Figure 6a


def test_fig6_overruns_begin_past_one_window(once, benchmark, figure):
    def pair():
        return figure("fig6/one_vn@1"), figure("fig6/one_vn@3")

    one, three = once(pair)
    benchmark.extra_info.update(over1=one.overrun_nacks, over3=three.overrun_nacks)
    assert one.overrun_nacks == 0
    assert three.overrun_nacks > 100  # the lightweight mechanism no longer prevents them


def test_fig6_sustained_under_heavy_overrun(once, benchmark, figure):
    """Past the credit window the link protocols retransmit (Figure 6b).

    The paper measures a 75K->60K aggregate drop at 3 clients; in our
    model the NI's receive staging absorbs most of the excess window, so
    overrun NACKing begins on schedule but the aggregate only flattens
    (documented deviation #1 in EXPERIMENTS.md).  Asserted here: overruns
    persist at many clients and the aggregate never *exceeds* the
    one-window peak nor collapses.
    """

    def pair():
        return figure("fig6/one_vn@2"), figure("fig6/one_vn@8")

    light, heavy = once(pair)
    benchmark.extra_info.update(
        agg2=light.aggregate_msgs_s, agg8=heavy.aggregate_msgs_s,
        over8=heavy.overrun_nacks,
    )
    assert heavy.overrun_nacks > 300          # retransmission regime active
    assert heavy.aggregate_msgs_s <= light.aggregate_msgs_s * 1.02
    assert heavy.aggregate_msgs_s >= 0.55 * light.aggregate_msgs_s


def test_fig6_st8_remapping_regime(once, benchmark, figure):
    """>8 clients on 8 frames: on-the-fly re-mapping at 200-300/s while a
    large fraction of peak is still delivered (Section 6.4.1)."""
    r = once(figure, "fig6/st@10x8")
    benchmark.extra_info.update(
        msgs_s=r.aggregate_msgs_s, remaps_s=r.remaps_per_s
    )
    assert 100 <= r.remaps_per_s <= 500      # paper: 200-300
    assert r.aggregate_msgs_s >= 0.4 * PEAK_MSGS_S  # paper: 50-75%


def test_fig6_st96_no_remapping(once, benchmark, figure):
    r = once(figure, "fig6/st@10x96")
    benchmark.extra_info["msgs_s"] = r.aggregate_msgs_s
    assert r.remaps_per_s == 0               # 96 frames: no overcommit
    assert r.not_resident_nacks == 0
    assert r.aggregate_msgs_s >= 0.75 * PEAK_MSGS_S


def test_fig6_mt_resilient_to_frames(once, benchmark, figure):
    """MT performance is resilient to the number of server frames (§6.4)."""

    def pair():
        return figure("fig6/mt@10x8"), figure("fig6/mt@10x96")

    mt8, mt96 = once(pair)
    benchmark.extra_info.update(mt8=mt8.aggregate_msgs_s, mt96=mt96.aggregate_msgs_s)
    assert mt8.aggregate_msgs_s >= 0.4 * PEAK_MSGS_S
    assert mt8.aggregate_msgs_s >= 0.5 * mt96.aggregate_msgs_s
