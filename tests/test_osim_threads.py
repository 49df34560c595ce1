"""Unit tests for simulated threads, mutexes, and condition variables."""

import pytest

from repro.am import parallel_vnet
from repro.chaos import reset_global_ids
from repro.cluster import Cluster, ClusterConfig
from repro.hw import Cpu
from repro.osim import CondVar, Mutex, Thread
from repro.sim import SimError, Simulator, ms, us


def make():
    sim = Simulator()
    cpu = Cpu(sim, quantum_ns=1_000_000, context_switch_ns=0)
    return sim, cpu


def test_thread_runs_and_returns():
    sim, cpu = make()

    def body(thr):
        yield from thr.compute(5_000)
        return "done"

    t = Thread(sim, cpu, body)
    sim.run()
    assert t.finished and t.result == "done"
    assert sim.now == 5_000


def test_threads_share_cpu():
    sim, cpu = make()
    cpu.quantum_ns = 1_000
    ends = {}

    def body(thr):
        yield from thr.compute(5_000)
        ends[thr.name] = sim.now

    Thread(sim, cpu, body, name="a")
    Thread(sim, cpu, body, name="b")
    sim.run()
    assert min(ends.values()) >= 9_000  # interleaved, not sequential


def test_thread_sleep_releases_cpu():
    sim, cpu = make()
    log = []

    def sleeper(thr):
        yield from thr.sleep(10_000)
        log.append(("sleeper", sim.now))

    def worker(thr):
        yield from thr.compute(5_000)
        log.append(("worker", sim.now))

    Thread(sim, cpu, sleeper)
    Thread(sim, cpu, worker)
    sim.run()
    assert ("worker", 5_000) in log  # worker ran during the sleep


def test_mutex_mutual_exclusion():
    sim, cpu = make()
    holder = []

    def body(thr, mtx):
        yield mtx.acquire(thr)
        holder.append(thr.name)
        assert len(holder) == 1
        yield from thr.sleep(1_000)
        holder.remove(thr.name)
        mtx.release(thr)

    mtx = Mutex(sim)
    Thread(sim, cpu, lambda t: body(t, mtx), name="a")
    Thread(sim, cpu, lambda t: body(t, mtx), name="b")
    sim.run()
    assert holder == []


def test_mutex_release_by_non_owner_raises():
    sim, cpu = make()
    mtx = Mutex(sim)

    def a(thr):
        yield mtx.acquire(thr)

    def b(thr):
        yield from thr.sleep(10)
        mtx.release(thr)

    Thread(sim, cpu, a, name="a")
    Thread(sim, cpu, b, name="b")
    with pytest.raises(SimError):
        sim.run()


def test_condvar_signal_wakes_one_fifo():
    sim, cpu = make()
    woke = []

    def waiter(thr, cv):
        val = yield cv.wait()
        woke.append((thr.name, val))

    cv = CondVar(sim)
    Thread(sim, cpu, lambda t: waiter(t, cv), name="w1")
    Thread(sim, cpu, lambda t: waiter(t, cv), name="w2")

    def signaller(thr):
        yield from thr.sleep(100)
        cv.signal("x")
        yield from thr.sleep(100)
        cv.signal("y")

    Thread(sim, cpu, signaller, name="s")
    sim.run()
    assert woke == [("w1", "x"), ("w2", "y")]


def test_condvar_broadcast_wakes_all():
    sim, cpu = make()
    woke = []
    cv = CondVar(sim)

    def waiter(thr):
        yield cv.wait()
        woke.append(thr.name)

    for name in ("a", "b", "c"):
        Thread(sim, cpu, waiter, name=name)

    def caster(thr):
        yield from thr.sleep(50)
        cv.broadcast()

    Thread(sim, cpu, caster)
    sim.run()
    assert sorted(woke) == ["a", "b", "c"]


def test_condvar_wait_with_mutex_reacquires():
    sim, cpu = make()
    mtx = Mutex(sim)
    cv = CondVar(sim)
    log = []

    def consumer(thr):
        yield mtx.acquire(thr)
        yield from cv.wait_with(mtx, thr)
        log.append(("consumer-owns", mtx._owner is thr))
        mtx.release(thr)

    def producer(thr):
        yield from thr.sleep(10)
        yield mtx.acquire(thr)  # possible: consumer released it in wait
        log.append("producer-in")
        cv.signal()
        mtx.release(thr)

    Thread(sim, cpu, consumer, name="c")
    Thread(sim, cpu, producer, name="p")
    sim.run()
    assert "producer-in" in log
    assert ("consumer-owns", True) in log


def test_thread_interrupt():
    sim, cpu = make()

    def body(thr):
        try:
            yield from thr.sleep(1_000_000)
        except Exception:
            return "interrupted"
        return "slept"

    t = Thread(sim, cpu, body)

    def killer():
        yield sim.timeout(100)
        t.interrupt("stop")

    sim.spawn(killer())
    sim.run()
    assert t.result == "interrupted"


# ------------------------------------------ interrupted with a slice open
def _interrupt_inside(inside, rival_priority):
    """Interrupt thread A while it holds an open CPU slice ``inside`` one
    of the four places a host compute runs; a rival (a user thread, or a
    ``priority=1`` kernel job) queues on the same CPU 1 ns before.
    Returns (whether A's slice was open at the interrupt, the interrupt's
    time, when the rival's 1 us compute finished, A, the Cpu, the
    context switch)."""
    reset_global_ids()
    cluster = Cluster(ClusterConfig(num_hosts=2))
    ep0, _ = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    sim, cpu = cluster.sim, cluster.node(0).cpu
    go = sim.event("go")
    seen = {}

    def rival_thread(thr):
        yield from thr.block(go)
        yield from thr.compute(1_000)
        seen["done"] = sim.now

    def rival_job():
        yield go
        yield from cpu.compute(1_000, priority=1)
        seen["done"] = sim.now

    def interrupt(a):
        seen["open"] = cpu._elided is not None if inside == "elided_spin" else cpu._in_slice
        seen["at"] = sim.now
        a.interrupt("killed")

    def body(thr):
        yield from thr.compute(1_000)  # take the CPU
        offset = us(20)
        if inside == "poll_touch":
            offset = (ep0._poll_touch_ns() + ep0._lock_cost()) // 2
        sim.schedule(offset - 1, go.trigger)
        sim.schedule(offset, interrupt, thr)
        if inside == "multi_slice_compute":
            yield from thr.compute(ms(3))  # three 1 ms slices
        elif inside == "one_slice_compute":
            yield from thr.compute(us(50))
        elif inside == "poll_touch":
            yield from ep0.poll(thr)
        else:  # boundaries every 1 us + touch: 20 us is none of them
            yield from ep0.spin(thr, lambda: False, period=1_000)

    proc = cluster.node(0).start_process()
    if rival_priority:
        sim.spawn(rival_job())
    else:
        proc.spawn_thread(rival_thread)
    a = proc.spawn_thread(body)
    cluster.run(until=sim.now + ms(100))
    return (seen.get("open"), seen.get("at"), seen.get("done"), a, cpu,
            cluster.cfg.context_switch_ns)


@pytest.mark.parametrize("rival_priority", [0, 1], ids=["user", "kernel"])
@pytest.mark.parametrize("inside", ["multi_slice_compute", "one_slice_compute",
                                    "poll_touch", "elided_spin"])
def test_interrupted_thread_hands_the_cpu_on_within_one_switch(inside, rival_priority):
    """The abort: a thread interrupted with a slice open (stepped or
    elided) goes off-CPU at once, so the queued rival runs after one
    context switch and the dead thread never keeps the lease."""
    was_open, at, done, a, cpu, switch = _interrupt_inside(inside, rival_priority)
    assert was_open  # A really was inside its slice
    assert a.finished
    assert done is not None, "the rival starved behind the interrupted thread"
    assert done - 1_000 <= at + switch
    assert cpu.holder is not a
