"""The stable public facade: sessions over virtual networks.

This package is the documented entry point for programs built on the
reproduction — the analog of AM-II's ``AM_Init``/``AM_Terminate`` pair.
A :class:`Session` owns the whole lifecycle in one context manager:
build the cluster, allocate the endpoints, wire them into a virtual
network, hand the application its endpoints/bundle, and tear everything
down (each endpoint freed exactly once through the segment driver) on
exit:

>>> from repro.api import Session
>>> with Session(nodes=[0, 1], num_hosts=4) as s:
...     ep0, ep1 = s.endpoints
...     # spawn threads, exchange messages, s.run(...)

How simulated time executes is an *engine* (:func:`resolve_kernel`):
``Session(engine="reference")`` replays on the pre-optimization
ordering oracle instead of the default ``"sequential"`` kernel.  The
same name threads through every benchmark suite via :func:`run_bench`,
the Python face of ``python -m repro bench <suite>``.

:class:`Cluster` here is the builder's cluster plus context management,
for callers that want the machine without a pre-built virtual network.
The stable types — :class:`Endpoint`, :class:`Bundle`,
:class:`VirtualNetwork`, :class:`NameService`, the error hierarchy under
:class:`AmError`/:class:`SimError` — are re-exported so applications
import only :mod:`repro.api`.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from ..am.bundle import Bundle
from ..am.endpoint import AmStats, Endpoint, Token
from ..am.errors import AmError, BadTranslationError, EndpointFreedError
from ..am.names import NameService
from ..am.vnet import VirtualNetwork, new_endpoint, parallel_vnet, star_vnet
from ..cluster.builder import Cluster as _BuilderCluster
from ..cluster.builder import Node
from ..cluster.config import ClusterConfig
from ..osim.segdriver import REPLACEMENT_POLICIES, ResidencyScoreboard
from ..sim import ENGINE_NAMES, EngineError, resolve_kernel
from ..sim.core import Interrupted, SimError
from ..tenant import Tenant, TenantRegistry, TenantSpec

__all__ = [
    "Cluster",
    "Session",
    # engine surface
    "ENGINE_NAMES",
    "EngineError",
    "resolve_kernel",
    "run_bench",
    "describe",
    # stable re-exports
    "AmError",
    "AmStats",
    "BadTranslationError",
    "Bundle",
    "ClusterConfig",
    "Endpoint",
    "EndpointFreedError",
    "Interrupted",
    "NameService",
    "Node",
    "ResidencyScoreboard",
    "SimError",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "Token",
    "VirtualNetwork",
    "new_endpoint",
    "parallel_vnet",
    "star_vnet",
]


def run_bench(name: str, *, engine: Optional[str] = None, **opts) -> dict:
    """Run a registered benchmark suite and return its BENCH document.

    ``name`` is any suite of :func:`repro.bench.harness.suites`
    (``collectives``, ``chaos``, ``calib``, ``scale``, ``fleet``,
    ``tenant``); ``engine`` is an engine name (:data:`ENGINE_NAMES`).
    ``smoke=True`` selects the reduced matrix with every cell run twice;
    every other keyword is a suite parameter.
    """
    from ..bench import harness

    if name not in harness.suites():
        raise AmError(
            f"unknown bench {name!r}; registered: {sorted(harness.suites())}")
    if engine is not None:
        resolve_kernel(engine)  # reject an unknown name before any cell runs
    return harness.run(name, engine=engine, **opts)


def describe() -> dict:
    """One queryable map of the public surface: engines, benches, and
    endpoint-frame replacement policies."""
    from ..bench.harness import suites

    return {
        "engines": list(ENGINE_NAMES),
        "benches": sorted(suites()),
        "replacement_policies": sorted(REPLACEMENT_POLICIES),
    }


class Cluster(_BuilderCluster):
    """A context-managed cluster of simulated workstations.

    Identical to :class:`repro.cluster.builder.Cluster` plus ``with``
    support: on exit, every endpoint still registered with a live node's
    segment driver is freed (idempotently — endpoints already freed by a
    session or by hand are skipped by the driver).
    """

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        """Free every still-registered endpoint on live nodes, then unplug
        every NIC from the fabric so no rx handler outlives the cluster."""

        def teardown() -> Generator:
            for node in self.nodes:
                if not node.nic.alive:
                    continue
                for ep_state in list(node.driver.endpoints.values()):
                    yield from node.driver.free_endpoint(ep_state)

        self.sim.run_process(teardown(), name="api.shutdown")
        for node in self.nodes:
            if self.network.attached(node.nic.nic_id):
                self.network.detach(node.nic.nic_id)


class Session:
    """One communication session: build, wire, use, tear down.

    Exactly one topology argument must be given:

    ``nodes=[...]``
        an all-pairs parallel virtual network, one endpoint per listed
        node (:func:`parallel_vnet`); endpoints appear in ``.endpoints``
        in rank order and ``.vnet`` is the :class:`VirtualNetwork`.
    ``star=(server_node, [client_nodes...])``
        the client/server shapes of Section 6.4 (:func:`star_vnet`);
        ``.servers`` and ``.clients`` hold the two sides and
        ``.endpoints`` is their concatenation.  ``shared_server_ep``
        selects the OneVN (shared) vs per-client configuration.

    ``engine=`` names the event kernel (:data:`ENGINE_NAMES`; ``None``
    consults the config); the resolved name is exposed as ``.engine``.

    Pass ``cluster=`` to join an existing machine (the session then
    frees only its own endpoints on close and leaves the cluster up);
    otherwise a cluster is built from ``cfg``/``**overrides`` and torn
    down with the session.  Closing is idempotent: each endpoint is
    freed exactly once no matter how often ``close()`` runs.
    """

    def __init__(
        self,
        nodes: Optional[Sequence[int]] = None,
        star: Optional[tuple[int, Sequence[int]]] = None,
        *,
        cluster: Optional[_BuilderCluster] = None,
        cfg: Optional[ClusterConfig] = None,
        engine: Optional[str] = None,
        shared_server_ep: bool = True,
        name: str = "session",
        **overrides,
    ):
        if (nodes is None) == (star is None):
            raise AmError("Session needs exactly one of nodes=... or star=(server, clients)")
        self.name = name
        self._owns_cluster = cluster is None
        if cluster is not None:
            self.cluster = cluster
            self.engine = engine or cluster.engine
            resolve_kernel(self.engine)  # reject an unknown name
        else:
            self.cluster = _BuilderCluster(cfg, engine=engine, **overrides)
            self.engine = self.cluster.engine
        self.sim = self.cluster.sim
        self.cfg = self.cluster.cfg
        self.vnet: Optional[VirtualNetwork] = None
        self.servers: list[Endpoint] = []
        self.clients: list[Endpoint] = []
        self._bundle: Optional[Bundle] = None
        self._closed = False
        if nodes is not None:
            self.vnet = self.cluster.run_process(
                parallel_vnet(self.cluster, nodes), name=f"{name}.setup"
            )
            self.endpoints: list[Endpoint] = list(self.vnet.endpoints)
        else:
            server_node, client_nodes = star
            self.servers, self.clients = self.cluster.run_process(
                star_vnet(self.cluster, server_node, client_nodes,
                          shared_server_ep=shared_server_ep),
                name=f"{name}.setup",
            )
            self.endpoints = self.servers + self.clients

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Free this session's endpoints (once); tear down an owned cluster."""
        if self._closed:
            return
        self._closed = True

        def teardown() -> Generator:
            for ep in self.endpoints:
                if ep.node.nic.alive:
                    yield from ep.node.driver.free_endpoint(ep.state)

        self.sim.run_process(teardown(), name=f"{self.name}.teardown")
        if self._owns_cluster:
            # Freeing the remaining (non-session) endpoints matches
            # Cluster.shutdown(); the driver skips already-freed ones.
            Cluster.shutdown(self.cluster)  # type: ignore[arg-type]

    # ------------------------------------------------------------ conveniences
    def bundle(self) -> Bundle:
        """The session's endpoints as one pollable bundle (cached)."""
        if self._bundle is None:
            self._bundle = Bundle(self.endpoints)
        return self._bundle

    def node(self, i: int) -> Node:
        return self.cluster.node(i)

    def run(self, until: Optional[int] = None) -> int:
        return self.cluster.run(until=until)

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None):
        return self.cluster.run_process(gen, name=name, until=until)

    def run_bench(self, name: str, **opts):
        """Run a registered bench under this session's engine."""
        return run_bench(name, engine=self.engine, **opts)
