"""Engine choice: callers never construct kernels by hand.

Every harness in the tree (Session/Cluster, chaos, scale, calib,
tenant) picks its kernel by *engine* name:

``"sequential"``
    the optimized pooled-entry kernel (:class:`repro.sim.core.Simulator`)
    — the default;
``"reference"``
    the pre-optimization kernel kept as an executable ordering oracle
    (:class:`repro.sim.reference.ReferenceSimulator`).

:func:`resolve_kernel` maps a name, or ``None`` (fall back to
``cfg.engine``), to the kernel class.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ENGINE_NAMES", "EngineError", "resolve_kernel"]

ENGINE_NAMES = ("sequential", "reference")


class EngineError(RuntimeError):
    """An engine spec names no registered kernel."""


def resolve_kernel(spec: Optional[str], cfg=None) -> type:
    """The kernel class for engine ``spec``; ``None`` consults
    ``cfg.engine`` (default sequential)."""
    if spec is None:
        spec = getattr(cfg, "engine", None) or "sequential"
    if spec == "sequential":
        from ..sim.core import Simulator

        return Simulator
    if spec == "reference":
        from ..sim.reference import ReferenceSimulator

        return ReferenceSimulator
    raise EngineError(f"unknown engine {spec!r}; registered: {list(ENGINE_NAMES)}")
