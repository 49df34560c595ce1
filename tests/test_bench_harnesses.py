"""Smoke tests for the benchmark harnesses (fast, reduced configurations)."""

from repro.bench.bandwidth import (
    BandwidthPoint,
    BandwidthResult,
    half_power_point,
    measure_am_bandwidth,
)
from repro.bench.logp import LogPResult, measure_am, measure_gam
from repro.bench.reporting import format_series, format_table
from repro.cluster import ClusterConfig


# ----------------------------------------------------------------- reporting
def test_format_table_alignment():
    out = format_table(["a", "bbb"], [[1, 2.5], [30, 4.0]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert "2.50" in out  # floats at 2 decimals


def test_format_series():
    out = format_series("x", [1, 2], [3.0, 4.5], unit="MB/s")
    assert out == "x [MB/s]: 1:3.0, 2:4.5"


# ---------------------------------------------------------------------- LogP
def test_logp_am_fast():
    r = measure_am(pingpongs=30, flood_msgs=400)
    assert isinstance(r, LogPResult)
    assert 1.5 < r.os_us < 3.5
    assert 5.0 < r.g_us < 20.0
    assert r.rtt_us > 2 * (r.os_us + r.or_us)


def test_logp_gam_fast():
    r = measure_gam(pingpongs=30, flood_msgs=400)
    assert 1.0 < r.os_us < 2.5
    assert 3.0 < r.g_us < 10.0


def test_logp_gam_cheaper_than_am():
    am = measure_am(pingpongs=20, flood_msgs=300)
    gam = measure_gam(pingpongs=20, flood_msgs=300)
    assert am.g_us > gam.g_us
    assert am.rtt_us > gam.rtt_us


# ----------------------------------------------------------------- bandwidth
def test_bandwidth_small_sweep():
    r = measure_am_bandwidth(sizes=[1024, 8192], count=40)
    assert r.at(8192) > r.at(1024)
    assert 35.0 < r.at(8192) < 47.0


def test_half_power_point_interpolation():
    r = BandwidthResult("x", [BandwidthPoint(128, 10.0), BandwidthPoint(512, 20.0), BandwidthPoint(8192, 40.0)])
    n_half = half_power_point(r)
    assert 128 <= n_half <= 512  # crosses 20 (= 40/2) at 512


def test_bandwidth_result_at_missing_raises():
    import pytest

    r = BandwidthResult("x", [BandwidthPoint(128, 10.0)])
    with pytest.raises(KeyError):
        r.at(999)
