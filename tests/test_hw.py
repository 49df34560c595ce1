"""Unit tests for the hardware models: CPU, SBus DMA, LANai meter."""

import pytest

from repro.cluster import ClusterConfig
from repro.hw import Cpu, LanaiMeter, SbusDma
from repro.sim import SimError, Simulator


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
        ended = sim.event()
        dma.start(1024, SbusDma.WRITE, ended.trigger)
        yield ended
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


def test_sbus_start_rejects_negative_size():
    dma = SbusDma(Simulator(), ClusterConfig())
    with pytest.raises(ValueError):
        dma.start(-1, SbusDma.WRITE, lambda: None)
    # nothing was granted or queued: the engine is still free
    assert not dma.held and len(dma._queue) == 0
    assert dma.transfers == 0 and dma.busy_ns == 0


def test_sbus_grants_fifo_across_start_and_transfer():
    """Callback starts and blocking transfers share one FIFO: each is
    granted in arrival order, back to back, whatever its form."""
    cfg = ClusterConfig()
    sim = Simulator()
    dma = SbusDma(sim, cfg)
    ends = []

    def cb(tag):
        ends.append((tag, sim.now))
        dma.release()

    def blocking(tag, nbytes, direction):
        yield from dma.transfer(nbytes, direction)
        ends.append((tag, sim.now))

    def driver():
        dma.start(2048, SbusDma.WRITE, cb, "a")
        sim.spawn(blocking("b", 1024, SbusDma.READ))
        yield sim.timeout(10)
        dma.start(512, SbusDma.READ, cb, "c")
        sim.spawn(blocking("d", 4096, SbusDma.WRITE))
        yield sim.timeout(10)
        dma.start(256, SbusDma.WRITE, cb, "e")

    sim.spawn(driver())
    sim.run()
    assert [tag for tag, _ in ends] == ["a", "b", "c", "d", "e"]
    t = 0
    for (tag, at), (n, d) in zip(ends, [(2048, "write"), (1024, "read"), (512, "read"),
                                         (4096, "write"), (256, "write")]):
        t += dma.transfer_ns(n, d)
        assert at == t, tag  # no gap: release starts the next one in place
    assert not dma.held and len(dma._queue) == 0


def test_sbus_engine_held_across_callback_until_release():
    cfg = ClusterConfig()
    sim = Simulator()
    dma = SbusDma(sim, cfg)
    seen = []

    def first_done():
        seen.append(("first", sim.now, dma.held, len(dma._queue)))
        # completion work keeps the engine: release only 5 us later
        sim.call_after(5_000, dma.release)

    def second_done():
        seen.append(("second", sim.now, dma.held, len(dma._queue)))
        dma.release()

    dma.start(1024, SbusDma.WRITE, first_done)
    dma.start(1024, SbusDma.READ, second_done)
    sim.run()
    d1 = cfg.sbus_write_ns(1024)
    assert seen == [("first", d1, True, 1),
                    ("second", d1 + 5_000 + cfg.sbus_read_ns(1024), True, 0)]
    assert not dma.held
    with pytest.raises(SimError):
        dma.release()  # releasing a free engine is a bug


def test_sbus_stats_match_blocking_form():
    """busy_ns, transfers and byte counts are the same whichever entry
    point moved the data."""
    sizes = [(8192, SbusDma.WRITE), (100, SbusDma.READ), (0, SbusDma.WRITE),
             (4096, SbusDma.READ), (64, SbusDma.WRITE)]

    def stats(dma):
        return (dma.busy_ns, dma.transfers, dma.bytes_read, dma.bytes_written, dma.sim.now)

    sim = Simulator()
    blocking = SbusDma(sim, ClusterConfig())

    def body():
        for n, d in sizes:
            yield from blocking.transfer(n, d)

    sim.run_process(body())

    sim = Simulator()
    callback = SbusDma(sim, ClusterConfig())
    for n, d in sizes:
        callback.start(n, d, callback.release)
    sim.run()
    assert stats(callback) == stats(blocking)
    assert blocking.bytes_read == 4196 and blocking.bytes_written == 8256


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
