"""Unit tests for ClusterConfig derived quantities and validation."""

import os
import subprocess
import sys

import pytest

from repro.cluster import ClusterConfig


def test_default_config_is_valid():
    ClusterConfig().validate()


def test_lanai_instruction_time():
    cfg = ClusterConfig()
    # 37.5 MHz => 26.67 ns/instruction (Section 2)
    assert abs(cfg.lanai_instr_ns - 26.667) < 0.01
    assert cfg.lanai_ns(375) == round(375 * 1000 / 37.5)


def test_wire_time_matches_link_rate():
    cfg = ClusterConfig()
    # 1.2 Gb/s -> 150 MB/s -> 8192 B in ~54.6 us
    assert abs(cfg.wire_ns(8192) - 54_613) < 10


def test_sbus_rates_are_asymmetric():
    cfg = ClusterConfig()
    w = cfg.sbus_write_ns(8192) - cfg.sbus_dma_startup_ns
    r = cfg.sbus_read_ns(8192) - cfg.sbus_dma_startup_ns
    assert w > r  # writes to host memory are the slow direction (Figure 4)
    assert abs(w - 8192 * 1000 / 46.8) < 2


def test_with_returns_modified_copy():
    cfg = ClusterConfig()
    cfg2 = cfg.with_(endpoint_frames=96)
    assert cfg2.endpoint_frames == 96
    assert cfg.endpoint_frames == 8
    cfg2.validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_hosts=0),
        dict(mtu_bytes=8),
        dict(endpoint_frames=0),
        dict(endpoint_frames=256),  # exceeds 1 MB SRAM at 8 KB frames
        dict(recv_queue_depth=0),
        dict(user_credits=64, recv_queue_depth=32),
        dict(replacement_policy="fifo"),
        dict(packet_loss_prob=1.5),
        dict(channels_per_pair=0),
        dict(collective_strategy="express"),
    ],
)
def test_validation_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        ClusterConfig(**kwargs).validate()


def test_frames_fit_in_sram():
    cfg = ClusterConfig(endpoint_frames=96)
    cfg.validate()  # 96 frames on the newer boards (Section 4.1)
    assert cfg.endpoint_frames * cfg.frame_bytes <= cfg.ni_sram_bytes


def test_credits_match_receive_queue_depth():
    cfg = ClusterConfig()
    # 32 credits because the request receive queue is 32 deep (§6.4)
    assert cfg.user_credits == cfg.recv_queue_depth == 32


def test_wrr_budget_matches_paper():
    cfg = ClusterConfig()
    assert cfg.wrr_max_msgs == 64
    assert cfg.wrr_max_ns == 4_000_000  # ~4 ms (Section 5.2)


@pytest.mark.parametrize("code, forbidden", [
    ("from repro.cluster import Cluster, ClusterConfig\n"
     "Cluster(ClusterConfig(num_hosts=16)).cfg.validate()",
     ("repro.api", "repro.tenant")),
    ("import repro.calib.sweep", ("repro.chaos",)),
    ("import repro.scale.loadgen", ("repro.chaos",)),
    ("from repro.bench.collectives import run_cell\n"
     "run_cell(4, 'firmware')", ("repro.api",)),
], ids=["cluster-build", "calib-sweep", "scale-loadgen", "collectives-cell"])
def test_import_guard(code, forbidden):
    # a fresh interpreter: the test session has imported everything already
    code += ("\nimport sys\n"
             f"print(sorted(m for m in sys.modules if m.startswith({forbidden!r})))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
