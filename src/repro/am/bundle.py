"""Endpoint bundles: a process's collection of endpoints.

The AM-II interface groups a process's endpoints into bundles so a thread
can service all of them with one call — the single-threaded server of
Section 6.4 is exactly a loop over ``bundle.poll_all`` (``poll_until``
on the bundle).  Bundles also support waiting for activity on *any*
member endpoint.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..nic.endpoint_state import F_SHARED, RES_FREED, RES_ONNIC_RW
from ..osim.threads import Thread
from .endpoint import Endpoint, two_phase_wait
from .errors import EndpointFreedError

__all__ = ["Bundle"]


class Bundle:
    """An ordered collection of endpoints owned by one process."""

    def __init__(self, endpoints: Optional[list[Endpoint]] = None):
        self.endpoints: list[Endpoint] = list(endpoints or [])
        self._next = 0

    def add(self, ep: Endpoint) -> None:
        self.endpoints.append(ep)

    def remove(self, ep: Endpoint) -> None:
        self.endpoints.remove(ep)
        self._next = 0

    def __len__(self) -> int:
        return len(self.endpoints)

    def __iter__(self):
        return iter(self.endpoints)

    @property
    def _watched(self) -> tuple:
        """What an elided sweep watches (add or remove only between waits)."""
        return tuple(ep.state for ep in self.endpoints if ep._watched)

    def _poll_touch_ns(self) -> int:
        return sum(ep._poll_touch_ns() for ep in self.endpoints)

    def _sweep_ns(self) -> int:
        return sum(ep._sweep_ns() for ep in self.endpoints)

    def poll_all(self, thr: Thread, limit: int = 8) -> Generator:
        """Poll every endpoint once, round-robin; returns total processed.

        Each poll touches the endpoint (uncacheable when resident), so a
        large bundle of resident endpoints is expensive to sweep — the
        ST-96 effect of Section 6.4.  The sweep's touch costs are charged
        as one lump-sum computation up front (one kernel event instead of
        one per endpoint), then each endpoint with work is drained in
        rotation order, and the rotation advances by one.

        Each member's touch is computed as :meth:`Endpoint.poll` computes
        it, off the endpoint table's residency and flag columns, and the
        one-slice compute is inlined (``Thread.compute`` when the touch
        does not fit the open slice or the thread is paused).  A sweep
        that finds no work anywhere builds no drain generator.
        """
        eps = self.endpoints
        if not eps:
            return 0
        touch = 0
        for ep in eps:
            st = ep.state
            table, row = st.table, st.row
            res = table.res[row]
            if res == RES_FREED:
                raise EndpointFreedError(f"endpoint {ep.name} freed")
            ep._stats.polls += 1
            cfg = ep.cfg
            touch += cfg.poll_resident_ns if res == RES_ONNIC_RW else cfg.poll_host_ns
            if table.flags[row] & F_SHARED:
                touch += cfg.shared_ep_lock_ns
        cpu = thr.cpu
        if touch > 0 and cpu.open(thr, touch):
            yield touch
            cpu.close(thr, touch)
        else:
            yield from thr.compute(touch)
        for ep in eps:
            st = ep.state
            if st.recv_requests or st.recv_replies or st.returned:
                return (yield from self._drain(thr, limit))
        self._next = (self._next + 1) % len(eps)
        return 0

    poll = poll_all  # as a poll_until target

    def _drain(self, thr: Thread, limit: int) -> Generator:
        """The sweep after its touch: drain the members in rotation order
        (an empty one needs no drain), then advance the rotation."""
        n = len(self.endpoints)
        total = 0
        for k in range(n):
            ep = self.endpoints[(self._next + k) % n]
            if ep.has_pending():
                total += yield from ep._drain(thr, limit)
        self._next = (self._next + 1) % n
        return total

    def _backfill(self, polls: int, sweeps: int) -> None:
        """Count an elided sweep's skipped polls and rotations."""
        for ep in self.endpoints:
            ep._stats.polls += polls
        self._next = (self._next + sweeps) % len(self.endpoints)

    def has_pending(self) -> bool:
        return any(ep.has_pending() for ep in self.endpoints)

    def wait_any(self, thr: Thread, timeout_ns: Optional[int] = None) -> Generator:
        """Block until any member endpoint has work (or timeout).

        Like :meth:`Endpoint.wait`: True once work is pending or a
        member's event fired, False on timeout; raises
        :class:`~repro.am.errors.EndpointFreedError` if a member is freed
        meanwhile.  Uses each endpoint's event mask (default ``recv``);
        the caller then runs :meth:`poll_all`.
        """
        if not self.endpoints:
            raise ValueError("wait on an empty bundle")
        for ep in self.endpoints:
            if not ep.state.event_mask:
                ep.set_event_mask({"recv"})
        # Pending work is checked once per sweep, so charging the sweep as
        # one computation is exactly equivalent to per-endpoint charges.
        return two_phase_wait(
            thr, self.endpoints[0].cfg, self.has_pending, self._poll_touch_ns,
            [ep._event_cv for ep in self.endpoints], timeout_ns, eps=self.endpoints)
