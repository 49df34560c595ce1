"""Host time corrected for the host's drifting speed.

On a shared virtual machine the speed of a vCPU drifts, by up to 2x over
seconds to minutes, as neighbours contend for the core.  Raw wall time
then says more about the neighbours than about the simulator.  While a
:class:`SpeedMeter` is active, SIGALRM interrupts every ``PERIOD_S`` and
a fixed integer loop of about a millisecond measures the vCPU's current
speed; each wall interval is weighted by the mean of the speeds at its
two ends relative to ``REF_RATE``.  The result is in *reference seconds*:
the time the same work would take on a host that runs the loop at
``REF_RATE``.  The loop's own time is excluded.

The loop touches no data, so nothing the simulator does to caches or
memory can move it, and it is benchmark code, so no change to the
simulator can either.  It tracks contention for the core; contention
for caches and memory bandwidth slows the simulator more than the loop,
and is only partly corrected.
"""

from __future__ import annotations

import signal
import time

__all__ = ["SpeedMeter", "probe_rate", "REF_RATE"]

#: probe iterations per second on an uncontended reference host
REF_RATE = 20.0e6
PERIOD_S = 0.1
_LOOP = 20_000


def probe_rate() -> float:
    """The probe loop's iterations per second, measured now."""
    t = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i & 7
    return _LOOP / (time.perf_counter() - t)


class SpeedMeter:
    """Context manager: ``ref_s`` reference seconds and ``wall_s`` wall
    seconds (probe time excluded) elapsed while it was active, and
    ``slices``, the reference seconds between successive
    :meth:`checkpoint` calls."""

    def __init__(self):
        self.ref_s = 0.0
        self.wall_s = 0.0
        self.slices: list[float] = []
        self._sliced = 0.0
        #: set while checkpoint() charges, so the alarm cannot interleave
        self._busy = False

    def _charge(self) -> None:
        now = time.perf_counter()
        rate = probe_rate()
        dt = now - self._last
        self.ref_s += dt * (rate + self._rate) / (2 * REF_RATE)
        self.wall_s += dt
        self._rate = rate
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a skipped interval is charged by the next call
            self._charge()

    def checkpoint(self) -> None:
        """Close the current slice."""
        self._busy = True
        self._charge()
        self.slices.append(self.ref_s - self._sliced)
        self._sliced = self.ref_s
        self._busy = False

    def __enter__(self) -> "SpeedMeter":
        self._rate = probe_rate()
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._charge()
