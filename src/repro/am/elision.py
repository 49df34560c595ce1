"""Spin elision: fast-forward a host spin's empty iterations, exactly.

The paper's hosts poll, and a spin whose predicate cannot change is a
closed-form schedule: it alternates fixed-cost computes (the idle step
and the poll's touch) whose boundaries are ``t0 + costs[0] + costs[1] +
...`` and whose only effects are counters.  Stepping it costs two kernel
events per iteration; eliding it costs one wake (DESIGN §16 "Elision").
The discipline is the express path's (DESIGN §11): *revocation, not
reservation*.

* **Commit.**  After an empty poll, a :class:`SpinWatch` schedules one
  wake at the first boundary at or after the spin's stop time
  (deadline, ``spin_before_block_us``) or the first boundary whose next
  compute would not fit the CPU quantum (where stepping would split the
  slice).  The wake's heap key is the key the skipped timeout would have
  had: boundary ``n``'s timeout is drawn at boundary ``n - 1``, so its
  seq is ``b(n - 1) << SEQ_SHIFT`` plus a virtual count that sorts
  before every real draw of that instant (the first one is drawn for
  real, at commit).
* **Revoke.**  Every change a spin predicate can read -- a receive or
  returned-queue append, a credit refund, a residency change, a
  collective handle completing -- calls :meth:`SpinWatch.signal` on the
  source's ``waiter``; so do kernel work queuing for the CPU and a
  pause.  A committed watch then moves its wake to the first virtual
  boundary *after* the kernel's current ``(now, seq)`` position, and
  the spin steps for real from there.  A change that lands exactly on
  a boundary is seen there only if its own entry sorts before the
  boundary's virtual timeout -- the kernel's order, unchanged.
* **Back-fill.**  The skipped slices' ``busy_ns``/``cpu_ns``, and the
  skipped polls and sweeps (through the polled target's ``backfill``
  callback), are added when the wake fires, and on demand
  (:meth:`SpinWatch.settle`) whenever one of those counters is read
  mid-spin, up to the current position.

Empty polls and their computes emit no trace events, so an elided spin
and a stepped one leave the same trace; ``ClusterConfig.spin_elision``
(oracle-only, like ``express_path``) turns elision off.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.core import SEQ_SHIFT

__all__ = ["SpinWatch", "IDLE_ENDED", "POLL_ENDED"]

#: what a wake returns: the kind of compute that ended at its boundary
IDLE_ENDED = 0  # the idle step (a ready check follows)
POLL_ENDED = 1  # a poll's touch (its queue check follows)


class SpinWatch:
    """One spin's listener and, while committed, its fast-forwarded run.

    ``sources`` are the objects whose ``waiter`` slot it occupies
    (endpoint states, a collective handle).  ``backfill(polls, sweeps)``
    is told how many passed boundaries began a poll (ended a ``costs[0]``
    compute: a ready check, then a poll) and how many ended one.

    A committed watch is the waitable the spin yields; it resumes the
    thread at a boundary with :data:`IDLE_ENDED` or :data:`POLL_ENDED`,
    the boundary's slice already closed (``Cpu.close``).
    """

    __slots__ = ("thr", "sim", "cpu", "sources", "backfill", "dirty",
                 "entry", "resume", "t0", "costs", "period", "pre", "seq1",
                 "vcount", "settled", "wake_n")

    def __init__(self, thr, sources, backfill: Optional[Callable[[int, int], None]] = None):
        self.thr = thr
        self.sim = thr.sim
        self.cpu = thr.cpu
        self.sources = tuple(sources)
        self.backfill = backfill
        #: a change was signalled since the last :meth:`arm`
        self.dirty = False
        #: the pending wake's heap entry; None unless committed
        self.entry: Optional[list] = None

    # ------------------------------------------------------------ listening
    def arm(self) -> None:
        """Listen for changes; call right before evaluating the predicate."""
        self.dirty = False
        for src in self.sources:
            src.waiter = self

    def close(self) -> None:
        """Stop listening (the spin returned or raised)."""
        self._cancel()
        for src in self.sources:
            if src.waiter is self:
                src.waiter = None

    def signal(self) -> None:
        """Something the predicate or the touch cost reads has changed."""
        self.dirty = True
        self.revoke()

    # ------------------------------------------------------------ committing
    def commit(self, costs: tuple, until: Optional[int] = None) -> bool:
        """Fast-forward the computes ``costs[0], costs[1], ...`` (cycled)
        starting now; the spin then yields this watch.  False if it must
        step instead: a change is pending, or the thread does not hold the
        CPU with nothing ahead of it, or the first compute would not fit
        the quantum.  ``until`` stops the run at the first ready check
        (the end of a ``costs[0]`` compute) at or after it."""
        if self.dirty or min(costs) <= 0:
            return False
        expiry = self.cpu.elide(self, costs)  # opens the first compute's slice
        if expiry is None:
            return False
        self.t0 = self.sim.now
        self.costs = costs
        self.period = sum(costs)
        self.pre = tuple(sum(costs[:j]) for j in range(len(costs)))
        self.settled = 0
        wake = self._quantum_limit(expiry)
        if until is not None:
            wake = min(wake, self._first_check_at_or_after(until))
        self.wake_n = wake
        # below every real draw count: a virtual draw sorts first in its instant
        self.vcount = next(self.sim._virtual_seq)
        return True

    def _subscribe(self, cb) -> Any:
        """The kernel's waitable protocol: the thread has yielded us."""
        self.resume = cb
        sim = self.sim
        self.seq1 = sim._draw()  # boundary 1's timeout, drawn now as stepping would
        n = self.wake_n
        self.entry = sim._push(self._time(n), self._seq(n), self._fire)
        return self._cancel

    # ---------------------------------------------------- boundary arithmetic
    def _time(self, n: int) -> int:
        k = len(self.costs)
        q, j = divmod(n, k)
        return self.t0 + q * self.period + self.pre[j]

    def _seq(self, n: int) -> int:
        """Boundary ``n``'s timeout was drawn at boundary ``n - 1``."""
        if n == 1:
            return self.seq1
        return (self._time(n - 1) << SEQ_SHIFT) | self.vcount

    def _first_at_or_after(self, t: int) -> int:
        d = t - self.t0
        if d <= 0:
            return 1
        k = len(self.costs)
        q, r = divmod(d, self.period)
        for j in range(k):
            if self.pre[j] >= r:
                return q * k + j
        return (q + 1) * k

    def _first_check_at_or_after(self, t: int) -> int:
        """The first boundary ending a ``costs[0]`` compute at or after ``t``."""
        q = max(0, -(-(t - self.t0 - self.costs[0]) // self.period))
        return q * len(self.costs) + 1

    def _quantum_limit(self, expiry: int) -> int:
        """The first boundary whose next compute would not fit the quantum
        (stepping takes the slow, slice-splitting path there)."""
        k = len(self.costs)
        return min(max(0, (expiry - self.t0 - self.pre[j] - c) // self.period + 1) * k + j
                   for j, c in enumerate(self.costs))

    def _next_after(self, now: int, at: int) -> int:
        """The first boundary after the kernel position ``(now, at)``."""
        n = self._first_at_or_after(now)
        if self._time(n) == now and self._seq(n) < at:
            n += 1
        return max(n, self.settled + 1)

    # -------------------------------------------------------------- accounts
    def _account(self, hi: int) -> None:
        """Charge boundaries ``settled+1 .. hi`` as the stepped spin would."""
        lo = self.settled
        if hi <= lo:
            return
        self.settled = hi
        self.cpu.charge(self.thr, self._time(hi) - self._time(lo))
        if self.backfill is not None:
            # a poll begins at the end of a costs[0] compute (boundaries n
            # with (n-1) % k == 0) and ends at boundaries n with n % k == 0
            k = len(self.costs)
            self.backfill((hi - 1) // k - (lo - 1) // k, hi // k - lo // k)

    def settle(self) -> None:
        """Back-fill every boundary the kernel has passed (mid-spin reads)."""
        if self.entry is not None:
            sim = self.sim
            self._account(min(self._next_after(sim.now, sim._at), self.wake_n) - 1)

    # ---------------------------------------------------------------- waking
    def revoke(self) -> None:
        """Wake at the first boundary after now, and step from there."""
        entry = self.entry
        if entry is None:
            return
        sim = self.sim
        n = self._next_after(sim.now, sim._at)
        if n < self.wake_n:
            sim.cancel(entry)
            self.wake_n = n
            self.entry = sim._push(self._time(n), self._seq(n), self._fire)

    def _fire(self) -> None:
        n = self.wake_n
        self._account(n - 1)
        self.entry = None
        j = (n - 1) % len(self.costs)
        self.cpu.close(self.thr, self.costs[j])
        self.resume(j, None)

    def _cancel(self) -> None:
        """Interrupted mid-run: keep what was passed, drop the wake; the
        thread's exit aborts the open slice (``Cpu.abort``), as a stepped one's."""
        entry = self.entry
        if entry is not None:
            self.settle()
            self.sim.cancel(entry)
            self.entry = None

