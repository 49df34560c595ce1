"""Figure 3: LogP characterization, AM over virtual networks vs GAM.

Paper: virtualization raises the round-trip time by 23% and the gap by a
factor of 2.21 while total per-packet overhead stays the same; Os grows
and Or shrinks under AM; GAM's parameters are the 1st-generation baseline.
"""

from repro.bench.logp import PAPER_AM, PAPER_GAM


def test_fig3_am_logp(once, benchmark, figure):
    am = once(figure, "fig3/am")
    benchmark.extra_info.update(
        os_us=am.os_us, or_us=am.or_us, l_us=am.l_us, g_us=am.g_us, rtt_us=am.rtt_us
    )
    assert abs(am.os_us - PAPER_AM["os_us"]) < 0.5
    assert abs(am.or_us - PAPER_AM["or_us"]) < 0.5
    assert abs(am.l_us - PAPER_AM["l_us"]) < 1.5
    assert abs(am.g_us - PAPER_AM["g_us"]) < 1.5


def test_fig3_gam_logp(once, benchmark, figure):
    gam = once(figure, "fig3/gam")
    benchmark.extra_info.update(
        os_us=gam.os_us, or_us=gam.or_us, l_us=gam.l_us, g_us=gam.g_us
    )
    assert abs(gam.os_us - PAPER_GAM["os_us"]) < 0.4
    assert abs(gam.or_us - PAPER_GAM["or_us"]) < 0.4
    assert abs(gam.l_us - PAPER_GAM["l_us"]) < 1.0
    assert abs(gam.g_us - PAPER_GAM["g_us"]) < 1.0


def test_fig3_virtualization_ratios(once, benchmark, figure):
    """The paper's headline Figure 3 relationships."""

    def both():
        return figure("fig3/am"), figure("fig3/gam")

    am, gam = once(both)
    gap_ratio = am.g_us / gam.g_us
    rtt_ratio = am.rtt_us / gam.rtt_us
    overhead_ratio = am.total_overhead_us / gam.total_overhead_us
    benchmark.extra_info.update(
        gap_ratio=gap_ratio, rtt_ratio=rtt_ratio, overhead_ratio=overhead_ratio
    )
    assert 1.9 <= gap_ratio <= 2.6          # paper: 2.21
    assert 1.12 <= rtt_ratio <= 1.35        # paper: 1.23
    assert 0.9 <= overhead_ratio <= 1.1     # paper: 1.00 (Os+Or unchanged)
    assert am.os_us > gam.os_us             # bigger descriptors
    assert am.or_us < gam.or_us             # VIS block load
