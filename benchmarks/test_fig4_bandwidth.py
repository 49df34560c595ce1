"""Figure 4: transfer bandwidths and bulk round-trip latency.

Paper: AM-II delivers 43.9 MB/s at 8 KB (93% of the 46.8 MB/s SBus write
limit, N1/2 ~ 540 B); the first-generation interface managed 38 MB/s; RTT
for n >= 128 fits 0.1112 n + 61.02 us.
"""

import numpy as np

from repro.bench.bandwidth import BandwidthPoint, BandwidthResult
from repro.cluster import ClusterConfig


def bandwidth(figure, key):
    """The bandwidth curve of one ``figures`` cell."""
    return BandwidthResult(key, [BandwidthPoint(n, mb_s)
                                 for n, mb_s in figure(key).points])


def test_fig4_am_bandwidth_curve(once, benchmark, figure):
    result = once(bandwidth, figure, "fig4/am_bw@80")
    peak = result.at(8192)
    cfg = ClusterConfig()
    benchmark.extra_info.update(mb_s_8k=peak, fraction=peak / cfg.sbus_write_mb_s)
    assert 41.0 <= peak <= 46.8             # paper: 43.9
    assert peak / cfg.sbus_write_mb_s >= 0.88  # paper: 93%
    # bandwidth increases with message size
    assert result.at(512) < result.at(2048) < peak


def test_fig4_gam_bandwidth(once, benchmark, figure):
    result = once(bandwidth, figure, "fig4/gam_bw@80")
    peak = result.at(8192)
    benchmark.extra_info["mb_s_8k"] = peak
    assert 34.0 <= peak <= 41.0             # paper: 38


def test_fig4_am_beats_gam_at_8k(once, benchmark, figure):
    def both():
        return (
            bandwidth(figure, "fig4/am_bw@80").at(8192),
            bandwidth(figure, "fig4/gam_bw@80").at(8192),
        )

    am, gam = once(both)
    benchmark.extra_info.update(am=am, gam=gam)
    assert am > gam  # pipelined descriptor processing wins (Section 6.1)


def test_fig4_half_power_point(once, benchmark, figure):
    n_half = once(figure, "fig4/am_bw@80").n_half
    benchmark.extra_info["n_half"] = n_half
    assert 250 <= n_half <= 800             # paper: ~540


def test_fig4_rtt_linear_fit(once, benchmark, figure):
    rtt = once(figure, "fig4/rtt").rtt_us
    xs = np.array([n for n, _ in rtt], dtype=float)
    ys = np.array([t for _, t in rtt], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    benchmark.extra_info.update(slope_us_per_byte=slope, intercept_us=intercept)
    # paper: 0.1112n + 61.02; our per-byte path cost is slightly lower
    # because staging copies collapse in the model
    assert 0.08 <= slope <= 0.14
    assert intercept > 0
    # good linearity
    resid = ys - (slope * xs + intercept)
    assert np.max(np.abs(resid)) / np.max(ys) < 0.1
