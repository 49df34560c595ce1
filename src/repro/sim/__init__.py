"""Discrete-event simulation kernel used by the whole reproduction.

How simulated time executes is an *engine*, named by every harness
(Session/Cluster, chaos, scale, calib, tenant) rather than constructed by
hand:

``"sequential"``
    the optimized pooled-entry kernel (:class:`Simulator`) — the default;
``"reference"``
    the pre-optimization kernel kept as an executable ordering oracle
    (:class:`ReferenceSimulator`).

:func:`resolve_kernel` maps a name, or ``None`` (fall back to
``cfg.engine``), to the kernel class.
"""

from typing import Optional

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    NULL_TRACE,
    Process,
    SimError,
    Simulator,
    Timeout,
    ms,
    seconds,
    us,
)
from .reference import ReferenceProcess, ReferenceSimulator
from .resources import Gate, GateTimeout, Resource, Store
from .rng import RngStreams

__all__ = [
    "ENGINE_NAMES",
    "EngineError",
    "resolve_kernel",
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "GateTimeout",
    "Interrupted",
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "NULL_TRACE",
    "Process",
    "ReferenceProcess",
    "ReferenceSimulator",
    "Resource",
    "RngStreams",
    "SimError",
    "Simulator",
    "Store",
    "Timeout",
    "ms",
    "seconds",
    "us",
]

_KERNELS = {"sequential": Simulator, "reference": ReferenceSimulator}
ENGINE_NAMES = tuple(_KERNELS)


class EngineError(RuntimeError):
    """An engine spec names no registered kernel."""


def resolve_kernel(spec: Optional[str], cfg=None) -> type:
    """The kernel class for engine ``spec``; ``None`` consults
    ``cfg.engine`` (default sequential)."""
    if spec is None:
        spec = getattr(cfg, "engine", None) or "sequential"
    if spec not in ENGINE_NAMES:
        raise EngineError(f"unknown engine {spec!r}; registered: {list(ENGINE_NAMES)}")
    return _KERNELS[spec]
