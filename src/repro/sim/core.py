"""Deterministic discrete-event simulation kernel.

Everything in the reproduction — host CPUs, the LANai firmware loop, Myrinet
links and switches, Solaris kernel threads — runs as a *process* (a Python
generator) on one :class:`Simulator`.  Time is an integer count of
nanoseconds, so event ordering is exact and runs are reproducible
bit-for-bit.

A process advances by yielding *waitables*:

``yield Timeout(sim, delay_ns)``
    resume ``delay_ns`` later.
``yield event``
    resume when the :class:`Event` is triggered; the yield expression
    evaluates to the event's value.
``yield process``
    join another process; evaluates to its return value.
``yield AnyOf(sim, [w1, w2, ...])``
    resume when the first waitable fires; evaluates to ``(index, value)``.
``yield AllOf(sim, [w1, w2, ...])``
    resume when all fire; evaluates to the list of values.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupted` inside the generator at its current wait point.

Hot-path design (see DESIGN.md "Kernel fast-path invariants"):

The kernel's determinism contract is *ordering plus integer time* — never
allocation identity.  That freedom is what the fast paths exploit:

* heap entries are 5-slot lists ``[when, seq, args, fn, poolable]``; the
  strictly-increasing ``seq`` guarantees comparisons never reach ``args``;
* entries created internally (``_post``, the process timeout fast path)
  are recycled through ``Simulator._entry_pool`` once dispatched, so
  steady-state scheduling allocates nothing;
* ``Simulator.timeout()`` hands out :class:`Timeout` objects from a
  free list; the process wait fast path returns them the moment their
  ``(delay, value)`` pair has been copied into a heap entry.  A pooled
  timeout is therefore *single-use*: yield it once, then call
  ``sim.timeout`` again (every call site in the tree does exactly this);
* ``Process._resume`` dispatches on the yielded object's exact class:
  ``Timeout`` and ``Event`` waits bypass ``_subscribe`` entirely — no
  handle objects, no cancel closures — while any other waitable falls
  back to the generic ``_subscribe`` protocol, so the extension point
  is unchanged.

Every fast path preserves the exact (when, seq)-relative ordering of the
straight-line implementation (kept as :mod:`repro.sim.reference`);
the ``perf`` bench suite (:mod:`repro.bench.perf`) pins bit-identical
timelines and event counts between the two kernels.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "NULL_TRACE",
    "Process",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupted",
    "SimError",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "us",
    "ms",
    "seconds",
]

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

_heappush = heapq.heappush
_heappop = heapq.heappop

#: shared args tuple for value-less resumes (the overwhelmingly common case)
_NO_VALUE_ARGS: tuple = (None, None)


def us(x: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(x * NS_PER_US)


def ms(x: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(x * NS_PER_MS)


def seconds(x: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(x * NS_PER_S)


class _NullTrace:
    """Default trace sink: tracing off costs one attribute check.

    :class:`repro.obs.bus.TraceBus` replaces this via ``TraceBus.attach``.
    The kernel emits nothing itself; it only carries the sink for the
    layers above, which use the two-member protocol (``enabled``,
    ``emit``), so :mod:`repro.sim` never imports :mod:`repro.obs`.
    """

    __slots__ = ()
    enabled = False

    def emit(self, kind: str, node: int = -1, **args: Any) -> None:
        pass


#: shared nil sink installed on every new Simulator
NULL_TRACE = _NullTrace()


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupted(SimError):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event is triggered exactly once, either with a value
    (:meth:`trigger`) or with an exception (:meth:`fail`).  Waiting on an
    already-triggered event resumes the waiter immediately (at the current
    simulation time, not synchronously).
    """

    __slots__ = ("sim", "_waiters", "_done", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[Callable[[Any, Optional[BaseException]], None]] = []
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._value = value
        self._flush()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._exc = exc
        self._flush()
        return self

    def _flush(self) -> None:
        waiters = self._waiters
        if waiters:
            self._waiters = []
            post = self.sim._post
            value, exc = self._value, self._exc
            for cb in waiters:
                post(cb, value, exc)

    # -- waitable protocol -------------------------------------------------
    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        """Register ``cb(value, exc)``; returns an unsubscribe callable."""
        if self._done:
            self.sim._post(cb, self._value, self._exc)
            return lambda: None
        self._waiters.append(cb)

        def cancel() -> None:
            try:
                self._waiters.remove(cb)
            except ValueError:
                pass

        return cancel


class Timeout:
    """Waitable that fires ``delay`` nanoseconds after it is waited on.

    Instances handed out by :meth:`Simulator.timeout` come from a free
    list and are recycled the moment a process wait consumes them —
    treat them as single-use (yield once, or hand to one combinator).
    Directly constructed instances are never pooled.
    """

    __slots__ = ("sim", "delay", "value", "_pooled")

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self.sim = sim
        self.delay = int(delay)
        self.value = value
        self._pooled = False

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        handle = self.sim.schedule(self.delay, cb, self.value, None)
        return handle.cancel


class AnyOf:
    """Waitable combinator: fires with ``(index, value)`` of the first child."""

    __slots__ = ("sim", "waitables")

    def __init__(self, sim: "Simulator", waitables: Iterable[Any]):
        self.sim = sim
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimError("AnyOf of nothing")

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        cancels: list[Callable[[], None]] = []
        fired = [False]

        def make(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def inner(value: Any, exc: Optional[BaseException]) -> None:
                if fired[0]:
                    return
                fired[0] = True
                for c in cancels:
                    c()
                if exc is not None:
                    cb(None, exc)
                else:
                    cb((i, value), None)

            return inner

        for i, w in enumerate(self.waitables):
            cancels.append(_as_waitable(self.sim, w)._subscribe(make(i)))

        def cancel_all() -> None:
            fired[0] = True
            for c in cancels:
                c()

        return cancel_all


class AllOf:
    """Waitable combinator: fires with the list of all child values."""

    __slots__ = ("sim", "waitables")

    def __init__(self, sim: "Simulator", waitables: Iterable[Any]):
        self.sim = sim
        self.waitables = list(waitables)

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        n = len(self.waitables)
        if n == 0:
            self.sim._post(cb, [], None)
            return lambda: None
        values: list[Any] = [None] * n
        remaining = [n]
        dead = [False]
        cancels: list[Callable[[], None]] = []

        def make(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def inner(value: Any, exc: Optional[BaseException]) -> None:
                if dead[0]:
                    return
                if exc is not None:
                    dead[0] = True
                    for c in cancels:
                        c()
                    cb(None, exc)
                    return
                values[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    cb(values, None)

            return inner

        for i, w in enumerate(self.waitables):
            cancels.append(_as_waitable(self.sim, w)._subscribe(make(i)))

        def cancel_all() -> None:
            dead[0] = True
            for c in cancels:
                c()

        return cancel_all


def _as_waitable(sim: "Simulator", obj: Any) -> Any:
    """Normalize a yielded object to something with ``_subscribe``."""
    if isinstance(obj, Process):
        return obj.done
    if hasattr(obj, "_subscribe"):
        return obj
    raise SimError(f"cannot wait on {obj!r}")


class Process:
    """A generator-based simulation process.

    The wrapped generator's return value becomes :attr:`result` and is
    delivered to any process joining via ``yield process``.  An uncaught
    exception propagates to joiners, or aborts the simulation run if nobody
    joined (errors must never pass silently).
    """

    __slots__ = ("sim", "name", "_gen", "done", "_cancel_wait", "_finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done = Event(sim, name=f"{self.name}.done")
        # None | heap entry (list) | Event | cancel callable — see interrupt()
        self._cancel_wait: Any = None
        self._finished = False

    def __repr__(self) -> str:
        state = "done" if self._finished else "active"
        return f"<Process {self.name} {state}>"

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        return self.done.value

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its wait point."""
        if self._finished:
            return
        cw = self._cancel_wait
        if cw is not None:
            cls = cw.__class__
            if cls is list:
                cw[3] = None  # cancel the pending heap entry in place
            elif cls is Event:
                try:
                    cw._waiters.remove(self._resume)
                except ValueError:
                    pass
            else:
                cw()
            self._cancel_wait = None
        self.sim._post(self._resume, None, Interrupted(cause))

    # -- stepping ----------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        self._cancel_wait = None
        sim = self.sim
        sim._current = self
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except Interrupted as unhandled:
            self._finish_fail(unhandled)
            return
        except Exception as err:  # noqa: BLE001 - propagate to joiners
            self._finish_fail(err)
            return
        finally:
            sim._current = None
        # -- fast-path dispatch on the yielded waitable's exact class ------
        cls = target.__class__
        if cls is Timeout:
            tvalue = target.value
            args = _NO_VALUE_ARGS if tvalue is None else (tvalue, None)
            pool = sim._entry_pool
            if pool:
                entry = pool.pop()
                entry[0] = sim.now + target.delay
                entry[1] = next(sim._seq)
                entry[2] = args
                entry[3] = self._resume
            else:
                entry = [sim.now + target.delay, next(sim._seq), args, self._resume, True]
            _heappush(sim._heap, entry)
            self._cancel_wait = entry
            if target._pooled:
                target._pooled = False
                sim._timeout_pool.append(target)
            return
        if cls is Process:
            target = target.done
            cls = Event
        if cls is Event:
            if target._done:
                sim._post(self._resume, target._value, target._exc)
            else:
                target._waiters.append(self._resume)
                self._cancel_wait = target
            return
        try:
            waitable = _as_waitable(sim, target)
        except SimError as err:
            self._finish_fail(err)
            return
        self._cancel_wait = waitable._subscribe(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self._finished = True
        self.done.trigger(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._finished = True
        if self.done._waiters:
            self.done.fail(exc)
        else:
            # Nobody is joining: mark done and abort the run loudly.
            self.done._done = True
            self.done._exc = exc
            self.sim._crash(self, exc)


class _Handle:
    """Cancelable handle for a scheduled callback."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[3] = None


class Simulator:
    """The event loop: a heap of timestamped callbacks plus process plumbing."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._current: Optional[Process] = None
        self._crashed: Optional[tuple[Process, BaseException]] = None
        self._nprocesses = 0
        #: cumulative count of dispatched events (perf harness metric)
        self.events_dispatched = 0
        #: recycled heap entries (only internally created, handle-less ones)
        self._entry_pool: list[list] = []
        #: recycled Timeout objects handed out by :meth:`timeout`
        self._timeout_pool: list[Timeout] = []
        #: observer-only trace sink (see repro.obs); nil by default
        self.trace: Any = NULL_TRACE

    # -- low-level scheduling ----------------------------------------------
    def schedule(self, delay: int, fn: Callable, *args: Any) -> _Handle:
        """Run ``fn(*args)`` after ``delay`` ns. Returns a cancelable handle."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + int(delay), next(self._seq), args, fn, False]
        _heappush(self._heap, entry)
        return _Handle(entry)

    def call_after(self, delay: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` ns; pooled one-shot callback.

        The hot-path sibling of :meth:`schedule`: the heap entry is
        recycled after dispatch, so steady-state callers allocate
        nothing.  Returns the raw entry; cancel by setting
        ``entry[3] = None`` (the callback slot both kernels share) and
        dropping the reference — a canceled entry is reclaimed when it
        surfaces.  Unlike :meth:`schedule` there is no handle object, so
        holders must not touch the entry after it may have fired.
        """
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now + int(delay)
            entry[1] = next(self._seq)
            entry[2] = args
            entry[3] = fn
        else:
            entry = [self.now + int(delay), next(self._seq), args, fn, True]
        _heappush(self._heap, entry)
        return entry

    def _post(self, fn: Callable, *args: Any) -> None:
        """Schedule at the current time (preserving FIFO order).

        Unlike :meth:`schedule` this returns no handle, so the entry is
        recycled after dispatch.
        """
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now
            entry[1] = next(self._seq)
            entry[2] = args
            entry[3] = fn
        else:
            entry = [self.now, next(self._seq), args, fn, True]
        _heappush(self._heap, entry)

    def _crash(self, proc: Process, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = (proc, exc)

    def _raise_crash(self) -> None:
        """Re-raise the first uncaught process exception (and clear it)."""
        proc, exc = self._crashed
        self._crashed = None
        raise SimError(f"uncaught exception in process {proc.name!r}") from exc

    # -- process API ---------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it runs from the next tick."""
        proc = Process(self, gen, name=name)
        self._nprocesses += 1
        self._post(proc._resume, None, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """A single-use timeout from the free list (see :class:`Timeout`)."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimError(f"negative timeout: {delay}")
            t = pool.pop()
            t.delay = int(delay)
            t.value = value
            t._pooled = True
            return t
        t = Timeout(self, delay, value)
        t._pooled = True
        return t

    #: alias: the zero-allocation sleep path is just a pooled timeout
    sleep = timeout

    def any_of(self, waitables: Iterable[Any]) -> AnyOf:
        return AnyOf(self, waitables)

    def all_of(self, waitables: Iterable[Any]) -> AllOf:
        return AllOf(self, waitables)

    def process_count(self) -> int:
        return self._nprocesses

    # -- run loop ------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the heap drains, ``until`` ns is reached, ``max_events``
        have fired, or ``stop()`` returns True (checked after each event).

        Returns the simulation time at exit.  Re-raises the first uncaught
        process exception.
        """
        heap = self._heap
        pop = _heappop
        entry_pool = self._entry_pool
        count = 0
        try:
            while heap:
                if self._crashed is not None:
                    self._raise_crash()
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return self.now
                entry = pop(heap)
                fn = entry[3]
                if fn is None:  # canceled
                    if entry[4]:
                        entry[2] = None
                        entry_pool.append(entry)
                    continue
                self.now = when
                fn(*entry[2])
                if entry[4]:
                    entry[2] = None
                    entry[3] = None
                    entry_pool.append(entry)
                count += 1
                if ((stop is not None and stop())
                        or (max_events is not None and count >= max_events)):
                    if self._crashed is not None:
                        self._raise_crash()
                    return self.now
            if self._crashed is not None:
                self._raise_crash()
            if until is not None:
                self.now = max(self.now, until)
            return self.now
        finally:
            self.events_dispatched += count

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None) -> Any:
        """Spawn ``gen`` and run until *it* finishes; return its result.

        Stops as soon as the process completes even if other (long-lived)
        processes keep the event heap populated.
        """
        proc = self.spawn(gen, name=name)
        done = {}
        proc.done._subscribe(lambda value, exc: done.setdefault("d", True))
        self.run(until=until, stop=lambda: "d" in done)
        if not proc.finished:
            raise SimError(f"process {proc.name!r} did not finish by t={self.now}")
        return proc.result
