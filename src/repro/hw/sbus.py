"""SBus DMA engine model.

The LANai 4.3 has a *single* DMA engine for SBus transfers (Section 2), so
host<->NI data movement in both directions serializes on one resource.
Transfer rates are asymmetric (Figure 4): the NI writes host memory at
46.8 MB/s and reads it somewhat faster.  This asymmetry — and the fact
that the engine is shared between the send and receive paths — produces
the paper's bandwidth ceiling and the multi-client bulk behaviour of
Figure 7.

The engine is granted in strict FIFO order and has two ways in:

``start(nbytes, direction, fn, *args)``
    the firmware's callback form.  An idle engine starts the transfer at
    once; a busy one queues it, and :meth:`SbusDma.release` starts it in
    place.  The transfer's end is one pooled ``Simulator.call_after``
    entry that accounts the transfer and calls ``fn(*args)`` with the
    engine *still held*: ``fn`` (or work it hands on) must call
    :meth:`SbusDma.release`.  No process and no Event per transfer.
``yield from transfer(nbytes, direction)``
    the blocking form for a process (GAM's dispatch loop): waits its
    turn in the same FIFO, runs the transfer and releases.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator

from ..cluster.config import ClusterConfig
from ..sim.core import Event, SimError, Simulator

__all__ = ["SbusDma"]


class SbusDma:
    """The shared SBus DMA engine of one network interface."""

    #: transfer directions
    READ = "read"    # host memory -> NI SRAM (send path)
    WRITE = "write"  # NI SRAM -> host memory (receive path)

    def __init__(self, sim: Simulator, cfg: ClusterConfig, name: str = "sbus"):
        self.sim = sim
        self.cfg = cfg
        self.name = name
        #: True from a transfer's grant until its holder calls release()
        self.held = False
        #: FIFO of waiting transfers: ``(nbytes, direction, duration, fn,
        #: args)``; ``fn`` is None for a blocking :meth:`transfer`, whose
        #: ``args`` is then the Event that grants it
        self._queue: Deque[tuple] = deque()
        self.bytes_read = 0
        self.bytes_written = 0
        self.transfers = 0
        self.busy_ns = 0

    def transfer_ns(self, nbytes: int, direction: str) -> int:
        """Duration of one DMA transfer, including startup."""
        if direction == self.READ:
            return self.cfg.sbus_read_ns(nbytes)
        if direction == self.WRITE:
            return self.cfg.sbus_write_ns(nbytes)
        raise ValueError(f"unknown DMA direction {direction!r}")

    def start(self, nbytes: int, direction: str, fn: Callable[..., Any], *args: Any) -> None:
        """Run one transfer in FIFO turn; ``fn(*args)`` at its end, held.

        The callee owns the engine from then on and must :meth:`release`
        it, so completion handling can keep the engine busy (Figure 4's
        43.9-of-46.8 MB/s comes from exactly that).
        """
        self._admit(nbytes, direction, fn, args)

    def release(self) -> None:
        """Free the engine; the next queued transfer starts now, in place."""
        if not self.held:
            raise SimError(f"release of idle DMA engine {self.name!r}")
        if not self._queue:
            self.held = False
            return
        nbytes, direction, duration, fn, args = self._queue.popleft()
        if fn is None:
            args.trigger(None)  # hand the engine to a blocked transfer()
        else:
            self.sim.call_after(duration, self._end, nbytes, direction, duration, fn, args)

    def transfer(self, nbytes: int, direction: str) -> Generator:
        """Move ``nbytes`` across the SBus; blocks while the engine is busy."""
        grant = Event(self.sim, name=f"{self.name}.grant")
        duration = self._admit(nbytes, direction, None, grant)
        yield grant
        yield duration
        self._account(nbytes, direction, duration)
        self.release()

    def utilization(self, elapsed_ns: int | None = None) -> float:
        total = elapsed_ns if elapsed_ns is not None else self.sim.now
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_ns / total)

    # -- internals -----------------------------------------------------------
    def _admit(self, nbytes: int, direction: str, fn, args) -> int:
        """The one way into the FIFO: validate, then grant or queue.

        Returns the transfer's duration.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        duration = self.transfer_ns(nbytes, direction)
        if self.held:
            self._queue.append((nbytes, direction, duration, fn, args))
        else:
            self.held = True
            if fn is None:
                args.trigger(None)
            else:
                self.sim.call_after(duration, self._end, nbytes, direction, duration, fn, args)
        return duration

    def _end(self, nbytes: int, direction: str, duration: int, fn, args) -> None:
        self._account(nbytes, direction, duration)
        fn(*args)

    def _account(self, nbytes: int, direction: str, duration: int) -> None:
        self.busy_ns += duration
        self.transfers += 1
        if direction == self.READ:
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes
