"""Figure 5: NAS Parallel Benchmark (Class A) speedups.

Paper: all but two benchmarks show linear speedups through 32 processors
on the NOW; FT and IS are limited by bisection bandwidth; the NOW scales
significantly better than the SP-2; Origin execution times are within 2x.
"""

import pytest

from repro.apps.npb import MACHINES, analytic_time


def test_fig5_bt_near_linear(once, benchmark, figure):
    def series():
        return [figure(f"fig5/bt@{p}").speedup for p in (1, 4, 16)]

    s1, s4, s16 = once(series)
    benchmark.extra_info.update(p4=s4, p16=s16)
    assert s1 == 1.0
    assert s4 >= 3.4
    assert s16 >= 13.0  # near-linear (Figure 5)


def test_fig5_lu_near_linear(once, benchmark, figure):
    def series():
        return [figure(f"fig5/lu@{p}").speedup for p in (4, 16)]

    s4, s16 = once(series)
    benchmark.extra_info.update(p4=s4, p16=s16)
    assert s4 >= 3.2 and s16 >= 12.0


def test_fig5_cg_mg_scale(once, benchmark, figure):
    def series():
        return figure("fig5/cg@16").speedup, figure("fig5/mg@16").speedup

    cg, mg = once(series)
    benchmark.extra_info.update(cg=cg, mg=mg)
    assert cg >= 12.0 and mg >= 10.0


def test_fig5_ft_is_bisection_limited(once, benchmark, figure):
    """The all-to-all benchmarks fall clearly short of linear (Figure 5)."""

    def series():
        ft = figure("fig5/ft@16")
        is_ = figure("fig5/is@16")
        ep = figure("fig5/ep@16")
        return ft, is_, ep

    ft, is_, ep = once(series)
    benchmark.extra_info.update(
        ft=ft.speedup, is_=is_.speedup, ep=ep.speedup,
        ft_comm=ft.comm_fraction, is_comm=is_.comm_fraction,
    )
    assert ft.speedup < 13.0
    assert is_.speedup < 12.0
    assert ep.speedup > 15.0           # the embarrassingly parallel control
    assert ft.comm_fraction > 0.2      # communication dominated
    assert is_.comm_fraction > 0.3
    assert ft.speedup < ep.speedup and is_.speedup < ep.speedup


def test_fig5_now_scales_better_than_sp2(once, benchmark, figure):
    def measure():
        out = {}
        for name in ("bt", "cg"):
            now = figure(f"fig5/{name}@16").speedup
            sp2 = analytic_time(name, 1, MACHINES["sp2"]) / analytic_time(name, 16, MACHINES["sp2"])
            out[name] = (now, sp2)
        return out

    result = once(measure)
    for name, (now, sp2) in result.items():
        benchmark.extra_info[name] = {"now": now, "sp2": sp2}
        assert now > sp2  # Figure 5's cross-machine comparison


def test_fig5_origin_times_within_2x(once, benchmark, figure):
    """Origin-2000 execution times are at most ~2x faster (Section 6.2)."""

    def measure():
        out = {}
        for name in ("cg", "mg", "ep"):
            t_now = figure(f"fig5/{name}@16").time_s
            t_org = analytic_time(name, 16, MACHINES["origin2000"])
            out[name] = t_now / t_org
        return out

    ratios = once(measure)
    benchmark.extra_info.update(ratios)
    for name, ratio in ratios.items():
        assert ratio <= 2.6, f"{name}: NOW/Origin time ratio {ratio:.2f}"
        assert ratio >= 0.9  # Origin nodes are faster, never slower
