"""Kernel/user threads and POSIX-style synchronization (Section 3.3).

The programming interface deliberately reuses standard thread
synchronization instead of inventing an event model: endpoints sensitize
condition variables to state transitions and threads wait on them.  This
module provides the simulated equivalents — :class:`Thread` (a body
generator bound to a host CPU), :class:`Mutex` and :class:`CondVar`.

A thread body is a generator function receiving the :class:`Thread`; it
consumes CPU with ``yield from thr.compute(ns)`` and blocks with
``yield event`` / ``yield from cv.wait_with(mutex)``.

The thread's :class:`~repro.hw.host.Cpu` opens, charges and closes its
slices, and aborts the open one when the thread finishes or is
interrupted (``Cpu.abort``), so no dead thread keeps the CPU.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from ..hw.host import Cpu
from ..sim.core import Event, Interrupted, SimError, Simulator

__all__ = ["Thread", "Mutex", "CondVar"]

_thread_ids = itertools.count(1)


class Thread:
    """A schedulable thread on one node's CPU."""

    def __init__(
        self,
        sim: Simulator,
        cpu: Cpu,
        body: Callable[["Thread"], Generator],
        name: str = "",
    ):
        self.sim = sim
        self.cpu = cpu
        self.tid = next(_thread_ids)
        self.name = name or f"thread{self.tid}"
        self._cpu_ns = 0  # charged by the Cpu; read cpu_ns
        #: set while the thread is suspended by a fault injector (chaos
        #: testing): the thread parks at its next compute/block point and
        #: stays off-CPU until :meth:`resume`
        self._pause_ev: Optional[Event] = None
        self.proc = sim.spawn(self._run(body), name=self.name)

    def _run(self, body: Callable[["Thread"], Generator]) -> Generator:
        try:
            result = yield from body(self)
        except Interrupted as intr:
            # An uncaught interrupt is a clean cancellation (e.g. process
            # termination), not an error.
            result = intr.cause
        finally:
            # A finished, failed or interrupted thread must not keep the CPU.
            self.cpu.abort(self)
        return result

    @property
    def cpu_ns(self) -> int:
        """Accumulated CPU time, skipped spin slices included."""
        return self.cpu.cpu_ns(self)

    @property
    def done(self):
        return self.proc.done

    @property
    def finished(self) -> bool:
        return self.proc.finished

    @property
    def result(self) -> Any:
        return self.proc.result

    # ------------------------------------------------------------ suspension
    @property
    def paused(self) -> bool:
        return self._pause_ev is not None

    def pause(self) -> None:
        """Suspend the thread at its next compute/block point (chaos fault:
        a stalled receiver that stops polling, Section 3.2 pressure)."""
        if self._pause_ev is None and not self.finished:
            self._pause_ev = Event(self.sim, name=f"{self.name}.pause")
            self.cpu.revoke(self)  # an elided spin parks at its next compute, as stepped

    def resume(self) -> None:
        """Release a paused thread; it re-contends for the CPU."""
        ev, self._pause_ev = self._pause_ev, None
        if ev is not None and not ev.triggered:
            ev.trigger(None)

    def _pause_gate(self) -> Generator:
        """Park off-CPU while paused (re-checks: pause can nest/repeat)."""
        while self._pause_ev is not None:
            tr = self.sim.trace
            if tr.enabled:
                tr.emit("thr.block", self.cpu.node_id, thread=self.name, paused=True)
            self.cpu.release_lease(self)
            yield self._pause_ev
            if tr.enabled:
                tr.emit("thr.wake", self.cpu.node_id, thread=self.name, paused=True)

    def compute(self, ns: int) -> Generator:
        """Consume CPU time (sliced and preemptible by the quantum)."""
        if self._pause_ev is not None:
            yield from self._pause_gate()
        if ns <= 0:
            return
        cpu = self.cpu
        if cpu.open(self, ns):  # the one-slice case: no Cpu.compute frame
            yield ns
            cpu.close(self, ns)
            return
        yield from cpu.compute(ns, owner=self)

    def block(self, waitable: Any) -> Generator:
        """Wait off-CPU: release the scheduler lease, then wait.

        All blocking waits inside thread bodies should go through this (or
        :meth:`sleep`) so other runnable threads get the CPU immediately
        rather than at lease expiry.
        """
        tr = self.sim.trace
        if tr.enabled:
            tr.emit("thr.block", self.cpu.node_id, thread=self.name)
        self.cpu.release_lease(self)
        result = yield waitable
        if self._pause_ev is not None:
            yield from self._pause_gate()
        if tr.enabled:
            tr.emit("thr.wake", self.cpu.node_id, thread=self.name)
        return result

    def sleep(self, ns: int) -> Generator:
        """Block off-CPU for ``ns``."""
        yield from self.block(ns)

    def interrupt(self, cause: Any = None) -> None:
        self.proc.interrupt(cause)

    def __repr__(self) -> str:
        return f"<Thread {self.name}>"


class Mutex:
    """FIFO mutex with owner tracking."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._owner: Optional[Thread] = None
        self._waiters: Deque[tuple[Event, Thread]] = deque()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def acquire(self, thread: Thread) -> Event:
        ev = Event(self.sim, name=f"{self.name}.acq")
        if self._owner is None:
            self._owner = thread
            ev.trigger(None)
        else:
            self._waiters.append((ev, thread))
        return ev

    def release(self, thread: Thread) -> None:
        if self._owner is not thread:
            raise SimError(f"{thread} releasing {self.name} owned by {self._owner}")
        if self._waiters:
            ev, nxt = self._waiters.popleft()
            self._owner = nxt
            ev.trigger(None)
        else:
            self._owner = None


class CondVar:
    """Condition variable; signals wake waiters in FIFO order."""

    def __init__(self, sim: Simulator, name: str = "cv"):
        self.sim = sim
        self.name = name
        self._waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        """Bare wait (no mutex): yield the returned event."""
        ev = Event(self.sim, name=f"{self.name}.wait")
        self._waiters.append(ev)
        return ev

    def wait_with(self, mutex: Mutex, thread: Thread) -> Generator:
        """Atomically release ``mutex``, wait, and reacquire."""
        ev = self.wait()
        mutex.release(thread)
        yield from thread.block(ev)
        yield mutex.acquire(thread)

    def signal(self, value: Any = None) -> None:
        if self._waiters:
            self._waiters.popleft().trigger(value)

    def broadcast(self, value: Any = None) -> None:
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.trigger(value)
