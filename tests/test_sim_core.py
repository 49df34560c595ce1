"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Interrupted,
    ReferenceSimulator,
    SimError,
    Simulator,
    Timeout,
    ms,
    seconds,
    us,
)


def test_time_helpers_round_to_ns():
    assert us(1) == 1_000
    assert us(0.5) == 500
    assert ms(4) == 4_000_000
    assert seconds(2) == 2_000_000_000
    assert us(0.0001) == 0  # sub-ns rounds down to zero


def test_schedule_orders_by_time_then_fifo():
    sim = Simulator()
    order = []
    sim.schedule(10, order.append, "b")
    sim.schedule(5, order.append, "a")
    sim.schedule(10, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(sim, 100)
        yield Timeout(sim, 250)
        return sim.now

    assert sim.run_process(proc()) == 350


def test_process_return_value_via_join():
    sim = Simulator()

    def child():
        yield sim.timeout(10)
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result

    assert sim.run_process(parent()) == 42


def test_event_trigger_wakes_waiters_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def firer():
        yield sim.timeout(30)
        ev.trigger("hello")

    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == [(30, "hello"), (30, "hello")]


def test_wait_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(7)

    def proc():
        value = yield ev
        return (sim.now, value)

    assert sim.run_process(proc()) == (0, 7)


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(1)
    with pytest.raises(SimError):
        ev.trigger(2)


def test_event_fail_propagates_into_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    def firer():
        yield sim.timeout(5)
        ev.fail(RuntimeError("boom"))

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert caught == ["boom"]


@pytest.mark.parametrize("factory", [Simulator, ReferenceSimulator])
@pytest.mark.parametrize("run_kw", [
    lambda sim: {},
    lambda sim: {"stop": lambda: sim.now >= 1},
    lambda sim: {"max_events": 2},
], ids=["run", "stop", "max_events"])
def test_uncaught_process_exception_aborts_run(factory, run_kw):
    """The event that ends the run may itself crash a process; the run
    must still re-raise it rather than return normally."""
    sim = factory()

    def bad():
        yield sim.timeout(1)
        raise ValueError("broken")

    sim.spawn(bad())
    with pytest.raises(SimError) as excinfo:
        sim.run(**run_kw(sim))
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_exception_propagates_to_joiner_not_abort():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise ValueError("broken")

    def parent():
        try:
            yield sim.spawn(bad())
        except ValueError:
            return "handled"

    assert sim.run_process(parent()) == "handled"


def test_any_of_returns_first_index_and_value():
    sim = Simulator()

    def proc():
        result = yield AnyOf(sim, [sim.timeout(50, "slow"), sim.timeout(10, "fast")])
        return (sim.now, result)

    assert sim.run_process(proc()) == (10, (1, "fast"))


def test_any_of_cancels_losers():
    """The losing timeout of an AnyOf must not fire later."""
    sim = Simulator()
    fired = []

    def proc():
        ev = sim.event()
        yield AnyOf(sim, [ev, sim.timeout(10)])
        fired.append(sim.now)
        # Run well past 10 more ns; the canceled event must stay quiet.
        yield sim.timeout(100)

    sim.run_process(proc())
    assert fired == [10]


def test_all_of_waits_for_everything():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(20, "b")])
        return (sim.now, values)

    assert sim.run_process(proc()) == (20, ["a", "b"])


def test_all_of_empty_completes_immediately():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(proc()) == []


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupted as intr:
            log.append((sim.now, intr.cause))

    def interrupter(proc):
        yield sim.timeout(40)
        proc.interrupt("wake up")

    p = sim.spawn(sleeper())
    sim.spawn(interrupter(p))
    sim.run()
    assert log == [(40, "wake up")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.spawn(quick())
    sim.run()
    p.interrupt("late")  # must not raise
    sim.run()


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker())
    assert sim.run(until=35) == 35
    assert sim.now == 35


def test_run_process_unfinished_raises():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10)

    with pytest.raises(SimError):
        sim.run_process(forever(), until=100)


def test_yield_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "12345"

    def parent():
        try:
            yield sim.spawn(bad())
        except SimError:
            return "caught"

    assert sim.run_process(parent()) == "caught"


def test_deterministic_two_runs_identical():
    def build():
        sim = Simulator()
        trace = []

        def node(i):
            for step in range(5):
                yield sim.timeout(7 * (i + 1))
                trace.append((sim.now, i, step))

        for i in range(4):
            sim.spawn(node(i))
        sim.run()
        return trace

    assert build() == build()
