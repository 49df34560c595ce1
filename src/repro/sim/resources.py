"""Synchronization and queueing primitives built on the event kernel.

These are deliberately small: a counted FIFO :class:`Resource`, a FIFO
:class:`Store` (bounded or unbounded), and a level-triggered :class:`Gate`.
Higher layers (condition variables, NIC work queues) are built
from these.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .core import Event, SimError, Simulator

__all__ = ["Resource", "Store", "Gate", "GateTimeout"]


class Resource:
    """A counted resource granted in strict FIFO order.

    ``yield res.acquire()`` blocks until a unit is available; every acquire
    must be paired with exactly one :meth:`release`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def idle(self) -> bool:
        """True when no unit is held and nobody is queued."""
        return self._in_use == 0 and not self._waiters

    def acquire(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.acquire")
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            ev.trigger(None)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True if a unit was granted."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the unit directly to the next waiter (count unchanged).
            self._waiters.popleft().trigger(None)
        else:
            self._in_use -= 1


class Store:
    """A FIFO queue of items with optional capacity.

    ``yield store.get()`` evaluates to the next item; ``yield store.put(x)``
    blocks while the store is full.  Items are delivered in put order and
    getters are served in arrival order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimError(f"store capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = Event(self.sim, name=f"{self.name}.put")
        if self._getters:
            # Direct handoff keeps FIFO order: store must be empty here.
            self._getters.popleft().trigger(item)
            ev.trigger(None)
        elif not self.full:
            self._items.append(item)
            ev.trigger(None)
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the store is full."""
        if self._getters:
            self._getters.popleft().trigger(item)
            return True
        if self.full:
            return False
        self._items.append(item)
        return True

    def offer(self, item: Any) -> Optional[Event]:
        """Accept ``item`` without allocating when it fits (the hot case).

        Returns ``None`` if the item was accepted immediately (direct
        handoff to a getter, or appended to a non-full store) — exactly
        the cases where :meth:`put` would have returned an
        already-triggered event.  Returns the blocking put event when the
        store is full, so callers can ``yield`` it for backpressure.
        """
        if self._getters:
            self._getters.popleft().trigger(item)
            return None
        if not self.full:
            self._items.append(item)
            return None
        ev = Event(self.sim, name=f"{self.name}.put")
        self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.get")
        if self._items:
            ev.trigger(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.trigger(None)


class Gate:
    """A level-triggered flag processes can wait on.

    While *set*, waits complete immediately; while *clear*, waiters queue
    until the next :meth:`set`.  Used for "work available" signalling where
    edge-triggered one-shot events would race.

    A Gate is itself a waitable: ``yield gate`` is equivalent to
    ``yield gate.wait()`` but skips the per-wait :class:`Event`
    allocation, so hot service loops can park for free.  The waiter list
    therefore holds a mix of Events (from :meth:`wait`) and raw callbacks
    (from ``_subscribe``); :meth:`set`/:meth:`pulse` release both in
    strict FIFO order.
    """

    def __init__(self, sim: Simulator, is_set: bool = False, name: str = ""):
        self.sim = sim
        self.name = name
        self._set = is_set
        self._waiters: list[Any] = []  # Events and raw callbacks, FIFO

    @property
    def is_set(self) -> bool:
        return self._set

    def wait(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.wait")
        if self._set:
            ev.trigger(None)
        else:
            self._waiters.append(ev)
        return ev

    def set(self) -> None:
        if self._set:
            return
        self._set = True
        self._release()

    def clear(self) -> None:
        self._set = False

    def pulse(self) -> None:
        """Release current waiters without leaving the gate set."""
        self._release()

    def _release(self) -> None:
        waiters, self._waiters = self._waiters, []
        post = self.sim._post
        for w in waiters:
            if w.__class__ is Event:
                w.trigger(None)
            else:
                post(w, None, None)

    # -- waitable protocol -------------------------------------------------
    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        if self._set:
            self.sim._post(cb, None, None)
            return lambda: None
        self._waiters.append(cb)

        def cancel() -> None:
            try:
                self._waiters.remove(cb)
            except ValueError:
                pass

        return cancel


class GateTimeout:
    """Waitable: a :class:`Gate` opening *or* a deadline, whichever first.

    Equivalent to ``AnyOf(sim, [gate.wait(), sim.timeout(delay)])`` —
    fires with ``(0, None)`` if the gate opens first and ``(1, None)``
    if the deadline passes first, with the same same-nanosecond
    tie-break (first posted wins, the loser is suppressed) — but with
    no Event, Timeout, handle or closure per wait.  Built for the
    firmware service loop's idle wait.

    One object serves every park of one waiter: re-arm it with
    ``yield gt.after(delay)``.  Its callbacks are bound once; the
    deadline is a pooled ``Simulator.call_after`` entry, canceled with
    ``Simulator.cancel``.  A gate wake that was already posted when the
    park ended another way (deadline or interrupt) is counted in
    ``_stale`` and swallowed when it lands — it always lands before any
    later park's wake, since it was posted first at the same instant.
    """

    __slots__ = ("gate", "delay", "_cb", "_timer", "_stale", "_gate_cb", "_timer_cb")

    def __init__(self, gate: Gate, delay: int = 0):
        self.gate = gate
        self.after(delay)
        #: the parked waiter's callback (None while not armed)
        self._cb: Optional[Callable[[Any, Optional[BaseException]], None]] = None
        #: the pending deadline's heap entry (None while not armed)
        self._timer: Optional[list] = None
        #: posted gate wakes of parks that already ended
        self._stale = 0
        self._gate_cb = self._on_gate
        self._timer_cb = self._on_timer

    def after(self, delay: int) -> "GateTimeout":
        """Set the deadline of the next wait; returns ``self`` to yield."""
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self.delay = delay
        return self

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        if self._cb is not None:
            raise SimError("GateTimeout waited on twice at once")
        self._cb = cb
        gate = self.gate
        if gate._set:
            gate.sim._post(self._gate_cb, None, None)
        else:
            gate._waiters.append(self._gate_cb)
        self._timer = gate.sim.call_after(self.delay, self._timer_cb)
        return self._cancel

    def _on_gate(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._stale:
            self._stale -= 1
            return
        cb = self._cb
        self._cb = None
        self.gate.sim.cancel(self._timer)
        self._timer = None
        cb((0, None), None)

    def _on_timer(self) -> None:
        self._timer = None  # the entry is recycled once this returns
        self._drop_gate()
        cb = self._cb
        self._cb = None
        cb((1, None), None)

    def _drop_gate(self) -> None:
        try:
            self.gate._waiters.remove(self._gate_cb)
        except ValueError:
            self._stale += 1  # the gate already posted our wake

    def _cancel(self) -> None:
        """Interrupt while parked: withdraw from the gate and the heap."""
        if self._cb is None:
            return
        self._cb = None
        self._drop_gate()
        self.gate.sim.cancel(self._timer)
        self._timer = None
