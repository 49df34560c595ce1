"""Cluster configuration and assembly.

``Cluster``/``Node``/``reset_global_ids`` are imported lazily:
``builder`` pulls in the whole stack (NIC, driver, network), and deep
modules import ``ClusterConfig`` from here — eager import would be a
package cycle.
"""

from .config import DEFAULT_CONFIG, ClusterConfig

__all__ = ["Cluster", "ClusterConfig", "DEFAULT_CONFIG", "Node",
           "reset_global_ids"]


def __getattr__(name):
    if name in ("Cluster", "Node", "reset_global_ids"):
        from . import builder

        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
