"""Charge host time to simulator layers with a SIGPROF sampler.

Wrapper spans cannot split the simulator's time by layer: simulated
processes are generators resumed from ``Simulator.run``, so wrapping a
public generator function times only its creation.  Instead the process
CPU timer interrupts every millisecond (``ITIMER_PROF``; the kernel
delivers about 250 a second at HZ=250) and the handler walks out from the
interrupted frame to the innermost frame whose file lies under
``src/repro/<pkg>/``.  That package is the layer; frames under
``ledger/`` count as ``ledger`` and anything else as ``other``.  Each
sample is charged the wall time since the previous one, so the layers'
self times add up to the sampled interval.

Only the main thread can receive the signal, which is where the
simulator runs.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from pathlib import Path

__all__ = ["LAYERS", "LayerSampler"]

#: the ``src/repro`` packages, then the benchmark itself, then the rest
LAYERS = ("sim", "myrinet", "nic", "hw", "osim", "am", "lib", "apps",
          "cluster", "obs", "tenant", "api", "ledger", "other")

_INTERVAL_S = 0.001


class LayerSampler:
    """Statistical per-layer host-time profile of one traced interval."""

    def __init__(self, root: Path):
        self._pkg_root = str(root / "src" / "repro") + os.sep
        self._ledger_root = str(root / "ledger") + os.sep
        self._root = str(root) + os.sep
        #: co_filename -> layer ("" for files that belong to none)
        self._layer_of_file: dict[str, str] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0
        #: (layer, "file:line(func)") of the innermost frame -> samples
        self.functions: Counter = Counter()
        self._last = 0.0
        self._previous = None

    def _classify(self, filename: str) -> str:
        # the script run from the command line keeps a relative path
        filename = os.path.abspath(filename)
        if filename.startswith(self._pkg_root):
            pkg = filename[len(self._pkg_root):].split(os.sep, 1)[0]
            return pkg if pkg in LAYERS else "other"
        if filename.startswith(self._ledger_root):
            return "ledger"
        return ""

    def _on_sample(self, signum, frame) -> None:
        now = time.perf_counter()
        dt, self._last = now - self._last, now
        files = self._layer_of_file
        inner = frame
        layer = "other"
        while frame is not None:
            fn = frame.f_code.co_filename
            cls = files.get(fn)
            if cls is None:
                cls = files[fn] = self._classify(fn)
            if cls:
                layer = cls
                break
            frame = frame.f_back
        self.self_s[layer] += dt
        self.samples += 1
        if inner is not None:
            code = inner.f_code
            path = code.co_filename.removeprefix(self._root)
            self.functions[(layer, f"{path}:{code.co_firstlineno}({code.co_name})")] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, _INTERVAL_S, _INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def top(self, n: int = 25) -> list[tuple[str, str, int]]:
        """The ``n`` functions with the most samples: (layer, function, samples)."""
        return [(layer, fn, k) for (layer, fn), k in self.functions.most_common(n)]
