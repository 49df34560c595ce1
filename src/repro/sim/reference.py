"""Straight-line reference kernel: the ordering oracle for the fast paths.

:class:`ReferenceSimulator` / :class:`ReferenceProcess` preserve the
pre-optimization event loop exactly: every ``schedule`` allocates a fresh
4-slot heap entry, every int wait (``yield delay_ns``) a fresh
:class:`~repro.sim.core.Timeout`, and every process wait goes through the
generic ``_as_waitable(...)._subscribe`` protocol — no free lists, no
class-dispatch shortcuts.

Both kernels run the *same* library code (firmware, AM layer, chaos
runner), so running one scenario on each and comparing timeline digests
and dispatched event counts is a bit-exact proof that the optimized
fast paths preserve event ordering and add or remove no events.
:func:`repro.chaos.run_modes` does exactly that for every chaos-suite
cell.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from .core import (
    SEQ_END,
    Event,
    Interrupted,
    Process,
    SimError,
    Simulator,
    _as_waitable,
    _Handle,
)

__all__ = ["ReferenceSimulator", "ReferenceProcess"]


class ReferenceProcess(Process):
    """Process with the generic (pre-fast-path) wait dispatch."""

    __slots__ = ()

    def interrupt(self, cause: Any = None) -> None:
        if self._finished:
            return
        if self._cancel_wait is not None:
            self._cancel_wait()
            self._cancel_wait = None
        self.sim._post(self._resume, None, Interrupted(cause))

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        self._cancel_wait = None
        self.sim._current = self
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
            self.sim._current = None
        try:
            waitable = _as_waitable(self.sim, target)
        except SimError as err:
            self._finish_fail(err)
            return
        self._cancel_wait = waitable._subscribe(self._resume)


class ReferenceSimulator(Simulator):
    """Event loop with per-event allocation (no entry pool)."""

    def schedule(self, delay: int, fn: Callable, *args: Any) -> _Handle:
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + int(delay), self._draw(), args, fn]
        heapq.heappush(self._heap, entry)
        return _Handle(self, entry)

    def _push(self, when: int, seq: int, fn: Callable, *args: Any) -> list:
        entry = [when, seq, args, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def _post(self, fn: Callable, *args: Any) -> None:
        self.schedule(0, fn, *args)

    def call_after(self, delay: int, fn: Callable, *args: Any) -> list:
        """One-shot callback with per-call allocation (no entry pool)."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + int(delay), self._draw(), args, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Clear the callback slot; the entry is skipped when it surfaces
        (no dead count, no compaction)."""
        entry[3] = None

    def spawn(self, gen: Generator, name: str = "") -> ReferenceProcess:
        proc = ReferenceProcess(self, gen, name=name)
        self._nprocesses += 1
        self._post(proc._resume, None, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        count = 0
        try:
            while self._heap:
                if self._crashed is not None:
                    self._raise_crash()
                when = self._heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    self._at = SEQ_END
                    return self.now
                entry = heapq.heappop(self._heap)
                fn = entry[3]
                if fn is None:  # canceled
                    continue
                self.now = when
                self._at = entry[1]
                fn(*entry[2])
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
            self._at = SEQ_END
            return self.now
        finally:
            self.events_dispatched += count
