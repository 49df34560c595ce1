"""Discrete-event simulation kernel used by the whole reproduction.

How simulated time executes is an *engine*, named by the one
``ClusterConfig.engine`` field rather than constructed by hand:

``"sequential"``
    the optimized pooled-entry kernel (:class:`Simulator`) — the default;
``"reference"``
    the pre-optimization kernel kept as an executable ordering oracle
    (:class:`ReferenceSimulator`).

:func:`resolve_kernel` maps a name to its kernel class; a name is
checked once, by ``ClusterConfig.validate``.
"""

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


def resolve_kernel(name: str) -> type:
    """The kernel class registered under ``name`` (one of :data:`ENGINE_NAMES`)."""
    return _KERNELS[name]
