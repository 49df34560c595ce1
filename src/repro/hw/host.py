"""Host processor model: a single time-sliced CPU per workstation.

Threads consume CPU by delegating to :meth:`Cpu.compute` from inside their
simulation process (``yield from cpu.compute(ns, owner=thread)``).  The
scheduler is lease-based, like a real quantum scheduler: the running
thread *keeps* the CPU across consecutive short computations until its
quantum expires or it blocks (``release_lease``), at which point the next
runnable thread is granted the CPU and charged a context switch.  Threads
that block without releasing (a raw event wait) lose the CPU at lease
expiry at the latest.

Two priority levels model Solaris kernel threads: ``priority=1`` work
(the segment driver's remap and proxy threads) preempts user threads at
the next slice boundary — slices are capped at ``max_slice_ns`` so the
preemption latency is bounded well below the quantum.

This is what makes time-shared workloads (Section 6.3) and the polling
server configurations (Section 6.4) behave like they did on Solaris: a
single-threaded server monopolizes its quantum against other *user*
threads, but endpoint re-mapping still makes progress underneath it.

Only the :class:`Cpu` touches its lease, queues and CPU-time accounts:
every compute is a slice it opens (:meth:`Cpu.open`; :meth:`Cpu.elide`
for a fast-forwarded spin), closes (:meth:`Cpu.close`) or aborts
(:meth:`Cpu.abort`, so a killed thread never keeps the CPU).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from ..sim.core import Event, Simulator

__all__ = ["Cpu"]


class Cpu:
    """One processor: quantum leases, two-level run queue, preemption."""

    def __init__(
        self,
        sim: Simulator,
        quantum_ns: int,
        context_switch_ns: int = 0,
        name: str = "cpu",
        max_slice_ns: int = 1_000_000,
        node_id: int = -1,
    ):
        self.sim = sim
        self.name = name
        #: owning host, for trace attribution (-1 when standalone)
        self.node_id = node_id
        self.quantum_ns = int(quantum_ns)
        self.context_switch_ns = int(context_switch_ns)
        #: preemption granularity: a running slice is at most this long
        self.max_slice_ns = min(int(max_slice_ns), self.quantum_ns)
        self._holder: Any = None
        self._holder_priority = 0
        self._last_owner: Any = None
        self._expiry = 0
        self._in_slice = False
        self._queue: Deque[tuple[Event, Any]] = deque()
        self._hi_queue: Deque[tuple[Event, Any]] = deque()
        self._check_scheduled = False
        self._busy_ns = 0
        self.switches = 0
        #: the holder's fast-forwarded spin while one is committed
        #: (:class:`repro.am.elision.SpinWatch`): it owes ``busy_ns`` its
        #: skipped slices and must wake when kernel work queues
        self._elided: Any = None

    @property
    def busy_ns(self) -> int:
        """CPU time consumed so far, skipped spin slices included."""
        if self._elided is not None:
            self._elided.settle()
        return self._busy_ns

    @property
    def holder(self) -> Any:
        """The lease holder, or None while the CPU is free."""
        return self._holder

    def cpu_ns(self, owner: Any) -> int:
        """``owner``'s CPU time, skipped spin slices included."""
        if self._elided is not None and self._holder is owner:
            self._elided.settle()
        return owner._cpu_ns

    # ------------------------------------------------------------ internals
    def _grant(self, owner: Any, priority: int) -> bool:
        """Give the lease to ``owner``; True if this is an owner change."""
        changed = self._last_owner is not None and self._last_owner is not owner
        self._holder = owner
        self._holder_priority = priority
        self._last_owner = owner
        self._expiry = self.sim.now + self.quantum_ns
        if changed:
            self.switches += 1
        return changed

    def _handoff_next(self) -> None:
        """Grant the lease to the next queued thread (kernel work first)."""
        for queue, prio in ((self._hi_queue, 1), (self._queue, 0)):
            while queue:
                ev, owner = queue.popleft()
                if ev.triggered or getattr(owner, "finished", False):
                    continue  # a thread that died queued is never granted
                changed = self._grant(owner, prio)
                ev.trigger(self.context_switch_ns if changed else 0)
                return
        self._holder = None

    def _schedule_expiry_check(self) -> None:
        if self._check_scheduled:
            return
        self._check_scheduled = True
        delay = max(0, self._expiry - self.sim.now)
        self.sim.schedule(delay, self._expiry_check)

    def _expiry_check(self) -> None:
        """Preempt an idle (blocked) leaseholder once its quantum is up."""
        self._check_scheduled = False
        if self._in_slice or (not self._queue and not self._hi_queue):
            return
        if self.sim.now >= self._expiry:
            self._holder = None
            self._handoff_next()
        else:
            self._schedule_expiry_check()

    def _acquire(self, owner: Any, priority: int) -> Generator:
        """Obtain the lease; yields while queued. Returns switch cost ns."""
        while True:
            if self._holder is owner:
                if self.sim.now >= self._expiry:
                    if self._queue or self._hi_queue:
                        self._holder = None
                        self._handoff_next()
                        continue
                    self._expiry = self.sim.now + self.quantum_ns  # renew
                return 0
            if self._holder is None and not self._queue and not self._hi_queue:
                changed = self._grant(owner, priority)
                return self.context_switch_ns if changed else 0
            if (
                priority > self._holder_priority
                and self._holder is not None
                and not self._in_slice
            ):
                # Holder is off-CPU (blocked/idle): kernel work steals now.
                changed = self._grant(owner, priority)
                return self.context_switch_ns if changed else 0
            ev = Event(self.sim, name=f"{self.name}.grant")
            if priority:
                self._hi_queue.append((ev, owner))
                self.revoke(self._holder)  # kernel work preempts at the next boundary
            else:
                self._queue.append((ev, owner))
            if not self._in_slice:
                self._schedule_expiry_check()
            switch_ns = yield ev
            return switch_ns or 0

    # --------------------------------------------------------------- slices
    def open(self, owner: Any, ns: int) -> bool:
        """Open a slice of ``ns`` if ``owner`` holds the lease, is not
        paused, and ``ns`` fits ``max_slice_ns`` and its quantum; the
        caller yields ``ns`` and then :meth:`close`\\ s it.

        The pause check reads a :class:`~repro.osim.threads.Thread`'s
        pause event straight off the owner (no ``paused`` property call
        per slice); a plain-object owner (kernel work) has none."""
        if (self._holder is not owner or ns > self.max_slice_ns
                or ns > self._expiry - self.sim.now
                or getattr(owner, "_pause_ev", None) is not None):
            return False
        self._in_slice = True
        return True

    def close(self, owner: Any, ns: int, priority: int = 0) -> None:
        """Charge the slice to ``busy_ns`` and ``owner``, then hand the
        lease over if kernel work waits for user work or the quantum is
        up with threads queued."""
        self._in_slice = False
        self._elided = None
        self._busy_ns += ns
        try:
            owner._cpu_ns += ns  # per-thread CPU accounting
        except AttributeError:
            pass  # a kernel owner (a plain object) keeps no account
        if ((priority == 0 and self._hi_queue)
                or ((self._queue or self._hi_queue) and self.sim.now >= self._expiry)):
            self._holder = None
            self._handoff_next()

    def elide(self, watch: Any, costs: tuple) -> Optional[int]:
        """:meth:`open` the first of the computes ``costs`` a spin ``watch``
        fast-forwards, if all fit a slice and no kernel work waits; returns
        the quantum's end, or None if the spin must step."""
        if (self._hi_queue or max(costs) > self.max_slice_ns
                or not self.open(watch.thr, costs[0])):
            return None
        self._elided = watch
        return self._expiry

    def charge(self, owner: Any, ns: int) -> None:
        """Back-fill an elided spin's passed slices (their handoffs were
        no-ops: the run ends by quantum expiry and wakes for kernel work)."""
        self._busy_ns += ns
        owner._cpu_ns += ns

    def revoke(self, owner: Any) -> None:
        """Make ``owner``'s elided spin step from its next boundary."""
        if self._elided is not None and self._holder is owner:
            self._elided.revoke()

    # ------------------------------------------------------------ public API
    def compute(self, ns: int, owner: Any = None, priority: int = 0) -> Generator:
        """Consume ``ns`` of CPU, preemptible at slice boundaries.

        Consecutive computations by the lease holder run back-to-back with
        no scheduling cost; a granted owner change pays the context
        switch.  ``priority=1`` marks kernel work that preempts user
        threads within ``max_slice_ns``.
        """
        remaining = int(ns)
        if remaining <= 0:
            return
        if owner is None:
            owner = object()  # anonymous: still serializes on the CPU
        while remaining > 0:
            slice_ns = min(remaining, self.max_slice_ns)
            if not self.open(owner, slice_ns):
                switch_ns = yield from self._acquire(owner, priority)
                self._in_slice = True
                if switch_ns:
                    yield switch_ns
                    self._busy_ns += switch_ns
                slice_ns = min(slice_ns, max(1, self._expiry - self.sim.now))
            yield slice_ns
            self.close(owner, slice_ns, priority)
            remaining -= slice_ns

    def release_lease(self, owner: Any) -> None:
        """Voluntarily yield the CPU (called when a thread blocks).

        Only the holder itself blocks, and never mid-slice: a release of
        an open slice is another process releasing a lease it does not
        own, so it raises.
        """
        if self._holder is owner:
            if self._in_slice:
                raise RuntimeError(f"{self.name}: lease released mid-slice")
            self._holder = None
            self._handoff_next()

    def abort(self, owner: Any) -> None:
        """``owner`` finished or was interrupted: its open slice, stepped
        or elided, ends uncharged and the lease passes on."""
        if self._holder is owner:
            self._in_slice = False
            self._elided = None
            self.release_lease(owner)

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of time the CPU was busy (since t=0 by default)."""
        total = elapsed_ns if elapsed_ns is not None else self.sim.now
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_ns / total)
