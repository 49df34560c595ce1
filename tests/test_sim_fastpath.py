"""Kernel hot-path invariants: pooling, typed dispatch, interruption.

The optimized kernel recycles heap entries, and an int wait (``yield
delay_ns``) allocates nothing else, so the steady-state sleep path
allocates nothing.  The determinism contract is *ordering + integer
time* — never allocation identity — so these tests pin down the places
where reuse could leak into semantics: interrupt during a pooled sleep,
int waits against Timeout waits, and the reference kernel dispatching
the exact same event sequence.
"""

import pytest

from repro.sim import (AllOf, AnyOf, Gate, GateTimeout, Interrupted, ReferenceSimulator,
                       SimError, Simulator)


# ----------------------------------------------------------------- entry pool
def test_entry_pool_stays_bounded_in_steady_state():
    sim = Simulator()

    def sleeper():
        for _ in range(200):
            yield sim.timeout(3)

    sim.run_process(sleeper())
    assert sim.now == 600
    # 200 sleeps + wakeups cycle through a handful of pooled objects
    assert len(sim._entry_pool) <= 4


def test_sleep_is_the_timeout_alias():
    assert Simulator.sleep is Simulator.timeout
    sim = Simulator()

    def proc():
        yield sim.sleep(9)

    sim.run_process(proc())
    assert sim.now == 9


def test_negative_timeout_raises_on_both_pool_paths():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(-1)


# ------------------------------------------------------------------ int waits
def _sleepers(sim, as_timeout):
    """Three processes sleeping in lockstep with same-instant ties; each
    wait is a bare int or a Timeout of the same delay."""
    order = []

    def wait(ns):
        return sim.timeout(ns) if as_timeout else ns

    def proc(name, delays):
        for d in delays:
            yield wait(d)
            order.append((sim.now, name))

    sim.spawn(proc("a", (5, 5, 0, 10)), name="a")
    sim.spawn(proc("b", (10, 0, 5, 5)), name="b")
    sim.spawn(proc("c", (0, 10, 10, 0)), name="c")
    sim.run()
    return order, sim.now, sim.events_dispatched


def test_int_wait_dispatches_as_a_timeout_on_both_kernels():
    runs = [_sleepers(kernel(), as_timeout)
            for kernel in (Simulator, ReferenceSimulator) for as_timeout in (False, True)]
    assert all(r == runs[0] for r in runs)
    assert runs[0][1] == 20 and len(runs[0][0]) == 12


@pytest.mark.parametrize("kernel", [Simulator, ReferenceSimulator])
def test_interrupt_during_int_sleep_cancels_its_entry(kernel):
    sim = kernel()
    log = []

    def sleeper():
        try:
            yield 1_000
        except Interrupted as i:
            log.append(("interrupted", sim.now, i.cause))
        yield 5
        log.append(("done", sim.now))

    p = sim.spawn(sleeper(), name="sleeper")

    def poker():
        yield 10
        entry = p._cancel_wait if kernel is Simulator else None
        p.interrupt("poke")
        if entry is not None:
            assert entry[3] is None and sim._dead == 1  # canceled in place

    sim.spawn(poker(), name="poker")
    sim.run()
    # the canceled 1,000 ns entry never resumed the sleeper a second time
    assert log == [("interrupted", 10, "poke"), ("done", 15)]
    assert sim.now == 15


@pytest.mark.parametrize("kernel", [Simulator, ReferenceSimulator])
@pytest.mark.parametrize("garbage", [-1, True, 1.5])
def test_negative_bool_and_float_yields_fail_the_process(kernel, garbage):
    sim = kernel()

    def bad():
        yield garbage

    def parent():
        try:
            yield sim.spawn(bad())
        except SimError as err:
            return str(err)

    msg = sim.run_process(parent())
    assert msg is not None and (("negative" in msg) if garbage == -1 else ("cannot wait" in msg))
    assert sim.now == 0


#: modules whose cost charges run once per packet, poll or slice
HOT_MODULES = ("nic/firmware.py", "nic/collective.py", "osim/threads.py",
               "osim/segdriver.py", "hw/host.py", "hw/sbus.py", "am/endpoint.py",
               "am/bundle.py", "am/gam.py", "myrinet/network.py")


def _valueless_timeouts(source):
    """Line numbers of ``<...>sim.timeout(x)``/``sleep(x)`` calls without a
    value: each allocates a Timeout where ``yield x`` allocates nothing."""
    import ast

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("timeout", "sleep")):
            continue
        recv = node.func.value
        on_sim = ((isinstance(recv, ast.Name) and recv.id == "sim")
                  or (isinstance(recv, ast.Attribute) and recv.attr == "sim"))
        if on_sim and len(node.args) < 2 and not node.keywords:
            lines.append(node.lineno)
    return lines


def test_hot_modules_charge_costs_as_int_waits():
    from pathlib import Path

    import repro

    assert _valueless_timeouts(
        "def f(self, sim, thr):\n"
        "    yield self.sim.timeout(5)\n"
        "    yield sim.sleep(n)\n"
        "    yield sim.timeout(5, 'v')\n"
        "    yield from thr.sleep(5)\n") == [2, 3]
    root = Path(repro.__file__).parent
    found = {m: _valueless_timeouts((root / m).read_text()) for m in HOT_MODULES}
    assert found == {m: [] for m in HOT_MODULES}


# -------------------------------------------------------------- interruption
def test_interrupt_during_pooled_sleep():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1_000)
        except Interrupted as i:
            log.append(("interrupted", sim.now, i.cause))
        yield sim.timeout(5)  # the pool must still be usable afterwards
        log.append(("done", sim.now))

    p = sim.spawn(sleeper(), name="sleeper")

    def poker():
        yield sim.timeout(10)
        p.interrupt("poke")

    sim.spawn(poker(), name="poker")
    sim.run()
    assert log == [("interrupted", 10, "poke"), ("done", 15)]


def test_repeated_interrupts_do_not_grow_the_pools():
    sim = Simulator()
    hits = []

    def sleeper():
        for _ in range(50):
            try:
                yield sim.timeout(1_000)
            except Interrupted:
                hits.append(sim.now)

    p = sim.spawn(sleeper(), name="sleeper")

    def poker():
        for _ in range(50):
            yield sim.timeout(7)
            p.interrupt()

    sim.spawn(poker(), name="poker")
    sim.run()
    assert len(hits) == 50
    # Cancellation is lazy: each canceled far-future entry is recycled
    # into the pool when the heap reaches it, not dropped on the floor.
    n0 = len(sim._entry_pool)
    assert n0 >= 50
    assert all(e[2] is None and e[3] is None for e in sim._entry_pool)

    # Steady state: further scheduling reuses the pool instead of growing it.
    def more():
        for _ in range(100):
            yield sim.timeout(2)

    sim.run_process(more())
    assert len(sim._entry_pool) <= n0 + 2


def test_interrupt_while_waiting_on_event():
    sim = Simulator()
    ev = sim.event("ev")
    log = []

    def waiter():
        try:
            yield ev
        except Interrupted:
            log.append(("interrupted", sim.now))

    p = sim.spawn(waiter(), name="waiter")

    def poker():
        yield sim.timeout(4)
        p.interrupt()
        yield sim.timeout(4)
        ev.trigger("late")  # must not resume the dead waiter

    sim.spawn(poker(), name="poker")
    sim.run()
    assert log == [("interrupted", 4)]
    assert ev._waiters == []  # the interrupt unsubscribed the process


# -------------------------------------------------- combinators over the pool
def test_anyof_with_pooled_timeouts():
    sim = Simulator()

    def proc():
        idx, value = yield AnyOf(sim, [sim.timeout(50), sim.timeout(10, "t")])
        assert (idx, value) == (1, "t")
        assert sim.now == 10

    sim.run_process(proc())


def test_allof_with_pooled_timeouts():
    sim = Simulator()

    def proc():
        values = yield AllOf(sim, [sim.timeout(5, "a"), sim.timeout(12, "b")])
        assert values == ["a", "b"]
        assert sim.now == 12

    sim.run_process(proc())


def test_timeout_value_delivered_through_fast_path():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(3, "payload")
        assert got == "payload"
        got = yield sim.timeout(3)
        assert got is None

    sim.run_process(proc())


# ------------------------------------------------- optimized vs reference
def _workload(sim):
    """A mixed workload touching every resume path: sleeps, events,
    process joins, combinators, and an interrupt."""
    trace = []
    ev = sim.event("ev")

    def child():
        yield sim.timeout(5)
        ev.trigger("go")
        return "child-done"

    def waiter():
        value = yield ev
        trace.append((sim.now, "ev", value))
        try:
            yield sim.timeout(100)
        except Interrupted:
            trace.append((sim.now, "interrupted"))

    def main():
        c = sim.spawn(child(), name="child")
        w = sim.spawn(waiter(), name="waiter")
        result = yield c
        trace.append((sim.now, "joined", result))
        idx, _ = yield AnyOf(sim, [sim.timeout(30), sim.timeout(60)])
        trace.append((sim.now, "anyof", idx))
        w.interrupt()
        yield sim.timeout(1)
        trace.append((sim.now, "end"))

    sim.run_process(main(), name="main")
    return trace, sim.now, sim.events_dispatched


def test_reference_kernel_dispatches_identical_events():
    opt = _workload(Simulator())
    ref = _workload(ReferenceSimulator())
    assert opt == ref  # same trace, same final time, same event count


def test_two_optimized_runs_are_deterministic():
    assert _workload(Simulator()) == _workload(Simulator())


# ------------------------------------------------- reusable GateTimeout park
def _park_scenario(sim, reusable=True):
    """One waiter parks six times on one GateTimeout (or, as the oracle,
    on a fresh ``AnyOf([gate.wait(), timeout])`` each time), covering a
    gate-first wake, a timer-first wake, same-instant ties both ways, an
    interrupt while parked and an interrupt racing a posted gate wake."""
    gate = Gate(sim, name="work")
    gt = GateTimeout(gate)
    log = []

    def park(delay):
        if reusable:
            return gt.after(delay)
        return AnyOf(sim, [gate.wait(), sim.timeout(delay)])

    def waiter():
        for delay in (100, 30, 20, 20, 1_000, 50, 40):
            gate.clear()
            try:
                idx, _ = yield park(delay)
                log.append((sim.now, idx))
            except Interrupted as i:
                log.append((sim.now, "interrupted", i.cause))

    w = sim.spawn(waiter(), name="waiter")

    def driver():
        yield sim.timeout(10)
        gate.set()                # park 1 (t=0, 100): gate first
        # park 2 (t=10, 30) times out at 40; park 3 (t=40, 20) ties at 60
        yield sim.timeout(50)     # drawn at 10, before park 3's deadline
        gate.set()                # its wake is posted after the deadline
        yield sim.timeout(10)
        gate.set()                # park 4 (t=60, 20): gate first at 70
        yield sim.timeout(30)
        w.interrupt("poke")       # park 5 (t=70, 1_000)
        yield sim.timeout(20)
        gate.set()                # park 6 (t=100, 50): gate wake posted ...
        w.interrupt("race")       # ... then interrupted: a stale wake

    sim.spawn(driver(), name="driver")
    sim.run()
    return log, sim.now, sim.events_dispatched, list(gate._waiters) if reusable else None


def test_gate_timeout_wakes_ties_and_interrupts():
    log, now, _, waiters = _park_scenario(Simulator())
    assert log == [
        (10, 0),                   # gate first
        (40, 1),                   # timer first
        (60, 1),                   # tie: the deadline was posted first
        (70, 0),                   # the tie's stale gate wake did not end park 4
        (100, "interrupted", "poke"),
        (120, "interrupted", "race"),
        (160, 1),                  # the stale gate wake was swallowed
    ]
    assert now == 160
    assert waiters == []


def test_gate_timeout_same_instant_tie_first_posted_wins():
    def run(gate_first):
        sim = Simulator()
        gate = Gate(sim)
        gt = GateTimeout(gate)
        got = []

        def setter():
            yield sim.timeout(20)
            gate.set()

        def waiter():
            got.append((yield gt.after(20)))
            gate.clear()
            # re-park at once: a stale gate wake from the tie must not
            # end this park
            got.append(((yield gt.after(7)), sim.now))

        if gate_first:  # setter's wake drawn before the deadline ...
            sim.spawn(setter())
            sim.spawn(waiter())
        else:           # ... or after it
            sim.spawn(waiter())
            sim.spawn(setter())
        sim.run()
        return got

    # the setter's entry precedes the deadline, but its gate wake is
    # *posted* at t=20, after the deadline entry: the deadline wins, and
    # the wake already in the heap is swallowed, not given to park 2
    assert run(gate_first=True) == [(1, None), ((1, None), 27)]
    # the setter runs after the deadline and the re-park: park 2 wakes
    assert run(gate_first=False) == [(1, None), ((0, None), 20)]


def test_gate_timeout_gate_set_before_deadline_entry_wins_tie():
    sim = Simulator()
    gate = Gate(sim)
    gt = GateTimeout(gate)
    got = []

    def waiter():
        gate.set()
        got.append((yield gt.after(0)))  # posted gate wake precedes the deadline

    sim.spawn(waiter())
    sim.run()
    assert got == [(0, None)]


def test_gate_timeout_reuses_one_object_without_growth():
    sim = Simulator()
    gate = Gate(sim)
    gt = GateTimeout(gate)
    seen = set()

    def waiter():
        for i in range(200):
            w = gt.after(5)
            seen.add(id(w))
            yield w

    def kicker():
        for _ in range(100):
            yield sim.timeout(7)
            gate.pulse()

    sim.spawn(waiter())
    sim.spawn(kicker())
    sim.run()
    assert seen == {id(gt)}
    assert len(sim._entry_pool) < 8  # deadline entries are recycled
    assert gt._cb is None and gt._timer is None and gt._stale == 0


def test_gate_timeout_rejects_double_wait_and_negative_delay():
    sim = Simulator()
    gt = GateTimeout(Gate(sim))
    with pytest.raises(SimError):
        gt.after(-1)
    gt._subscribe(lambda v, e: None)
    with pytest.raises(SimError):
        gt._subscribe(lambda v, e: None)


def test_gate_timeout_matches_anyof_and_reference_kernel():
    opt = _park_scenario(Simulator())
    ref = _park_scenario(ReferenceSimulator())
    assert opt == ref  # same wakes, same final time, same event count
    oracle = _park_scenario(Simulator(), reusable=False)
    assert opt[:3] == oracle[:3]


# ------------------------------------------------------- cancel + compaction
def _cancel_storm(sim, seed, n=3000, raw=True, probe=None):
    """A seeded schedule of one-shot callbacks and interrupted sleepers.
    Each fired callback arms short follow-ups and one far deadline, the
    way the firmware arms a park deadline, then cancels pending entries
    at random through ``sim.cancel``, a handle and (with ``raw``) a bare
    store, so dead far entries pile up.  Returns the dispatched
    ``(when, seq, token)`` sequence."""
    import itertools
    import random

    rng = random.Random(seed)
    pending = {}  # token -> (kind, entry or handle)
    order = []
    count = itertools.count()
    sleepers = []

    def arm(delay):
        tok = next(count)
        if rng.random() < 0.5:
            pending[tok] = ("entry", sim.call_after(delay, fire, tok))
        else:
            pending[tok] = ("handle", sim.schedule(delay, fire, tok))

    def fire(tok):
        del pending[tok]
        order.append((sim.now, sim._at, tok))
        if len(order) + len(pending) < n:
            for _ in range(rng.choice((1, 1, 2))):
                arm(rng.randrange(0, 5_000))
            arm(rng.randrange(10 ** 6, 2 * 10 ** 6))
        for _ in range(rng.choice((1, 1, 2))):
            if not pending:
                break
            kind, obj = pending.pop(rng.choice(sorted(pending)))
            if kind == "handle":
                obj.cancel()
            elif raw and rng.random() < 0.3:
                obj[3] = None  # a bare store: honoured, uncounted
            else:
                sim.cancel(obj)
            if probe is not None:
                probe(sim)
        if sleepers and rng.random() < 0.2:
            sleepers[rng.randrange(len(sleepers))].interrupt()

    def sleeper(k):
        while len(order) < n - 50:
            try:
                yield sim.timeout(rng.randrange(1_000, 200_000))
                order.append((sim.now, sim._at, f"s{k}"))
            except Interrupted:
                order.append((sim.now, sim._at, f"i{k}"))

    for _ in range(20):
        arm(rng.randrange(0, 5_000))
    sleepers.extend(sim.spawn(sleeper(k)) for k in range(4))
    sim.run()
    return order


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cancel_storm_dispatches_identically_on_both_kernels(seed, monkeypatch):
    rebuilds = []
    compact = Simulator._compact
    monkeypatch.setattr(Simulator, "_compact", lambda sim: (rebuilds.append(1), compact(sim)))
    opt, ref = Simulator(), ReferenceSimulator()
    got = _cancel_storm(opt, seed)
    assert rebuilds  # the optimized heap was rebuilt along the way
    assert got == _cancel_storm(ref, seed)
    assert opt.events_dispatched == ref.events_dispatched
    assert len(got) > 2_000
    assert opt._dead == 0 and not opt._heap


def _live(sim):
    return sum(1 for e in sim._heap if e[3] is not None)


def test_counted_cancels_keep_the_heap_within_twice_live_plus_floor():
    from repro.sim.core import COMPACT_FLOOR

    worst = [0]

    def probe(sim):
        live = _live(sim)
        assert len(sim._heap) <= 2 * live + COMPACT_FLOOR
        assert sim._dead == len(sim._heap) - live  # the count is exact
        worst[0] = max(worst[0], len(sim._heap) - live)

    _cancel_storm(Simulator(), 7, raw=False, probe=probe)
    assert worst[0] > COMPACT_FLOOR // 2  # the bound was actually exercised


def test_compaction_recycles_entries_without_their_old_callbacks():
    from repro.sim.core import COMPACT_FLOOR

    sim = Simulator()
    fired = []
    old = [sim.call_after(1_000 + i, fired.append, ("old", i)) for i in range(4 * COMPACT_FLOOR)]
    for entry in old:
        sim.cancel(entry)
    # the rebuild ran: the heap holds only live entries, and the dead
    # pooled ones went back to the free list, cleared
    assert len(sim._heap) < 2 * COMPACT_FLOOR
    assert any(e is o for e in sim._entry_pool for o in old)
    assert all(e[2] is None and e[3] is None for e in sim._entry_pool)
    new = [sim.call_after(500 + i, fired.append, ("new", i)) for i in range(4 * COMPACT_FLOOR)]
    assert any(n is o for n in new for o in old)  # recycled identities
    sim.run()
    assert fired == [("new", i) for i in range(4 * COMPACT_FLOOR)]
    assert sim._dead == 0


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    hits = []
    handle = sim.schedule(5, hits.append, "a")
    sim.run()
    handle.cancel()  # AnyOf cancels every child, the fired one included
    assert hits == ["a"] and sim._dead == 0


def test_gate_timeout_parked_and_woken_keeps_the_heap_bounded():
    from repro.sim.core import COMPACT_FLOOR

    sim = Simulator()
    gate = Gate(sim)
    gt = GateTimeout(gate)
    sizes = []

    def waiter():
        for _ in range(1_000):
            sizes.append(len(sim._heap))
            yield gt.after(8_000_000)  # the firmware's retransmit horizon

    def kicker():
        for _ in range(1_000):
            yield sim.timeout(7)
            gate.pulse()

    sim.spawn(waiter())
    sim.spawn(kicker())
    sim.run()
    assert len(sizes) == 1_000
    # every wake cancels an 8 ms deadline: without compaction the heap
    # would hold one dead entry per park
    assert max(sizes) <= 2 * COMPACT_FLOOR + 4
