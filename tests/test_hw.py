"""Unit tests for the hardware models: CPU, SBus DMA, LANai meter."""

import pytest

from repro.cluster import ClusterConfig
from repro.hw import Cpu, LanaiMeter, SbusDma
from repro.sim import Simulator


# ------------------------------------------------------------------ Cpu
def test_cpu_single_thread_runs_at_full_speed():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=10_000_000)

    def body():
        yield from cpu.compute(5_000_000, owner="a")
        return sim.now

    assert sim.run_process(body()) == 5_000_000


def test_cpu_two_threads_timeshare_fairly():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=1_000)
    finish = {}

    def body(name):
        yield from cpu.compute(10_000, owner=name)
        finish[name] = sim.now

    sim.spawn(body("a"))
    sim.spawn(body("b"))
    sim.run()
    # Both need 10 us of CPU; interleaved they finish near 20 us.
    assert 19_000 <= finish["a"] <= 21_000
    assert 19_000 <= finish["b"] <= 21_000


def test_cpu_context_switch_charged_on_owner_change():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=1_000, context_switch_ns=100)

    def body(name):
        yield from cpu.compute(3_000, owner=name)

    sim.spawn(body("a"))
    sim.spawn(body("b"))
    sim.run()
    assert cpu.switches > 0
    # busy time = total work + one switch charge per owner change
    assert cpu.busy_ns == 6_000 + cpu.switches * 100


def test_cpu_zero_compute_is_free():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=1_000)

    def body():
        yield from cpu.compute(0, owner="a")
        return sim.now

    assert sim.run_process(body()) == 0


def test_cpu_release_mid_slice_raises():
    """Only the holder releases its lease, and never mid-slice: a release
    of an open slice is another process releasing a lease it does not
    own, which would hand the CPU away under the running slice."""
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=10_000)
    owner = object()

    def body():
        yield from cpu.compute(4_000, owner=owner)

    sim.spawn(body())
    sim.run(until=1_000)
    assert cpu.holder is owner
    with pytest.raises(RuntimeError, match="mid-slice"):
        cpu.release_lease(owner)
    sim.run()
    cpu.release_lease(owner)  # off-slice: an ordinary block
    assert cpu.holder is None


def test_cpu_utilization():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=10_000)

    def body():
        yield from cpu.compute(4_000, owner="a")
        yield sim.timeout(6_000)

    sim.run_process(body())
    assert abs(cpu.utilization() - 0.4) < 0.01


# ------------------------------------------------------------------ SBus
def test_sbus_transfer_times():
    cfg = ClusterConfig()
    sim = Simulator()
    dma = SbusDma(sim, cfg)

    def body():
        yield from dma.transfer(8192, SbusDma.WRITE)
        return sim.now

    t = sim.run_process(body())
    assert t == cfg.sbus_write_ns(8192)
    assert dma.bytes_written == 8192


def test_sbus_single_engine_serializes_directions():
    cfg = ClusterConfig()
    sim = Simulator()
    dma = SbusDma(sim, cfg)
    done = []

    def xfer(direction):
        yield from dma.transfer(4096, direction)
        done.append((sim.now, direction))

    sim.spawn(xfer(SbusDma.WRITE))
    sim.spawn(xfer(SbusDma.READ))
    sim.run()
    # One engine for both directions (Section 2): strictly sequential.
    assert done[1][0] == cfg.sbus_write_ns(4096) + cfg.sbus_read_ns(4096)


def test_sbus_hold_release_split():
    cfg = ClusterConfig()
    sim = Simulator()
    dma = SbusDma(sim, cfg)
    order = []

    def holder():
        yield dma.acquire()
        yield from dma.hold(1024, SbusDma.WRITE)
        yield sim.timeout(50_000)  # completion processing while held
        dma.release()
        order.append(("holder", sim.now))

    def waiter():
        yield sim.timeout(1)
        yield from dma.transfer(1024, SbusDma.READ)
        order.append(("waiter", sim.now))

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert order[0][0] == "holder"  # waiter blocked until release


def test_sbus_rejects_negative_size():
    sim = Simulator()
    dma = SbusDma(sim, ClusterConfig())

    def body():
        try:
            yield from dma.transfer(-1, SbusDma.READ)
        except ValueError:
            return "rejected"

    assert sim.run_process(body()) == "rejected"


def test_sbus_unknown_direction():
    dma = SbusDma(Simulator(), ClusterConfig())
    with pytest.raises(ValueError):
        dma.transfer_ns(10, "sideways")


# ----------------------------------------------------------------- LANai
def test_lanai_meter_accumulates_by_category():
    cfg = ClusterConfig()
    meter = LanaiMeter(cfg)
    ns1 = meter.cost_ns("send", 100)
    ns2 = meter.cost_ns("send", 100)
    meter.cost_ns("recv", 50)
    assert ns1 == ns2 == cfg.lanai_ns(100)
    assert meter.count_by_op["send"] == 2
    assert meter.total_ns == 2 * ns1 + cfg.lanai_ns(50)
    assert meter.mean_ns("send") == ns1
    assert meter.mean_ns("missing") == 0.0
    assert set(meter.snapshot()) == {"send", "recv"}
