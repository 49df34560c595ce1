"""Cluster assembly: wire hosts, NICs, drivers and the fabric together.

``Cluster(cfg)`` builds the whole machine of Section 2 — one
:class:`Node` (CPU + NIC + segment driver) per host, a fat-tree
:class:`~repro.myrinet.network.Network`, and a fault injector — on a
single deterministic simulator.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hw.host import Cpu
from ..myrinet.fault import FaultInjector
from ..myrinet.network import Network
from ..nic.firmware import Nic
from ..osim.process import UserProcess
from ..osim.segdriver import SegmentDriver
from ..sim import resolve_kernel
from ..sim.core import Simulator
from ..sim.rng import RngStreams
from .config import ClusterConfig

__all__ = ["Node", "Cluster"]


class Node:
    """One workstation: CPU, network interface, and segment driver."""

    def __init__(self, sim: Simulator, cfg: ClusterConfig, node_id: int, network: Network, rngs: RngStreams):
        self.sim = sim
        self.cfg = cfg
        self.node_id = node_id
        self.cpu = Cpu(sim, cfg.cpu_quantum_ns, cfg.context_switch_ns, name=f"cpu{node_id}", node_id=node_id)
        self.nic = Nic(sim, cfg, node_id, network, rngs)
        self.driver = SegmentDriver(sim, cfg, self.nic, self.cpu, rngs)
        self.processes: list[UserProcess] = []

    def start_process(self, name: str = "") -> UserProcess:
        proc = UserProcess(self, name=name or f"n{self.node_id}.p{len(self.processes)}")
        self.processes.append(proc)
        return proc

    def __repr__(self) -> str:
        return f"<Node {self.node_id}>"


class Cluster:
    """The full machine: nodes + fabric + faults, on one simulator."""

    def __init__(
        self,
        cfg: Optional[ClusterConfig] = None,
        *,
        engine=None,
        **overrides,
    ):
        if cfg is None:
            cfg = ClusterConfig()
        if overrides:
            cfg = cfg.with_(**overrides)
        cfg.validate()
        self.cfg = cfg
        #: the engine name (:func:`repro.sim.resolve_kernel`): ``engine=``,
        #: or ``cfg.engine`` when None
        self.engine = engine or cfg.engine
        self.sim = resolve_kernel(self.engine)()
        self.rngs = RngStreams(cfg.seed)
        self.network = Network(self.sim, cfg, self.rngs)
        self.nodes = [Node(self.sim, cfg, i, self.network, self.rngs) for i in range(cfg.num_hosts)]
        self.faults = FaultInjector(self.sim, self.network)

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def enable_tracing(self, capacity: Optional[int] = None):
        """Attach a :class:`repro.obs.TraceBus` to this cluster's simulator.

        Observer-only: enabling tracing never changes simulated time or
        event order.  Returns the bus (also reachable as ``cluster.sim.trace``).
        """
        from ..obs import TraceBus

        return TraceBus.attach(self.sim, capacity=capacity)

    def run(self, until: Optional[int] = None) -> int:
        return self.sim.run(until=until)

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None):
        return self.sim.run_process(gen, name=name, until=until)

    def crash_node(self, i: int) -> None:
        self.nodes[i].nic.crash()
        self.faults.crash_node(i)

    def reboot_node(self, i: int) -> None:
        self.faults.reboot_node(i)
        self.nodes[i].nic.reboot()
