"""Reproduction of Mainwaring & Culler, "Design Challenges of Virtual
Networks: Fast, General-Purpose Communication" (PPoPP 1999).

A deterministic discrete-event simulation of the Berkeley NOW virtual
network system: the Myrinet fabric, the LANai NI firmware with its
endpoint frames and transport protocol, the Solaris endpoint segment
driver (the four-state residency protocol), and the Active Messages II
programming interface on top — plus the paper's workloads and a benchmark
harness regenerating every figure.

Entry points — the stable facade is :mod:`repro.api`:

>>> from repro.api import Session
>>> with Session(nodes=[0, 1], num_hosts=4) as s:
...     ep0, ep1 = s.endpoints

See README.md for the full tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from .cluster import Cluster, ClusterConfig
from .obs import TraceBus
from .am import (
    Bundle,
    Endpoint,
    NameService,
    VirtualNetwork,
    new_endpoint,
    parallel_vnet,
    star_vnet,
)

__version__ = "1.0.0"

__all__ = [
    "Bundle",
    "Cluster",
    "ClusterConfig",
    "Endpoint",
    "NameService",
    "TraceBus",
    "VirtualNetwork",
    "new_endpoint",
    "parallel_vnet",
    "star_vnet",
    "__version__",
]
