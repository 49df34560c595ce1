"""Cluster assembly: wire hosts, NICs, drivers and the fabric together.

``Cluster(cfg)`` builds the whole machine of Section 2 — one
:class:`Node` (CPU + NIC + segment driver) per host, a fat-tree
:class:`~repro.myrinet.network.Network`, and a fault injector — on a
single deterministic simulator, the kernel that ``cfg.engine`` names.
Used as a context manager, it frees every endpoint and unplugs every
NIC on exit.
"""

from __future__ import annotations

import itertools
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

__all__ = ["Node", "Cluster", "reset_global_ids"]


def reset_global_ids() -> None:
    """Rewind the module-global id counters (message, packet, bulk
    transfer and thread ids).  They are cosmetic labels, but they appear
    in trace events, so a run that must replay bit-identically in a
    process that already ran another calls this before building its
    cluster."""
    from ..am import endpoint as am_endpoint
    from ..myrinet import packet as myrinet_packet
    from ..nic import message as nic_message
    from ..osim import threads as osim_threads

    nic_message._msg_ids = itertools.count(1)
    myrinet_packet._packet_ids = itertools.count(1)
    am_endpoint._transfer_ids = itertools.count(1)
    osim_threads._thread_ids = itertools.count(1)


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

    def __init__(self, cfg: Optional[ClusterConfig] = None, **overrides):
        if cfg is None:
            cfg = ClusterConfig()
        if overrides:
            cfg = cfg.with_(**overrides)
        cfg.validate()
        self.cfg = cfg
        self.sim = resolve_kernel(cfg.engine)()
        self.rngs = RngStreams(cfg.seed)
        self.network = Network(self.sim, cfg, self.rngs)
        self.nodes = [Node(self.sim, cfg, i, self.network, self.rngs) for i in range(cfg.num_hosts)]
        self.faults = FaultInjector(self.sim, self.network)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        """Free every still-registered endpoint on live nodes (the driver
        skips endpoints already freed), then unplug every NIC from the
        fabric so no rx handler outlives the cluster."""

        def teardown() -> Generator:
            for node in self.nodes:
                if not node.nic.alive:
                    continue
                for ep_state in list(node.driver.endpoints.values()):
                    yield from node.driver.free_endpoint(ep_state)

        self.sim.run_process(teardown(), name="cluster.shutdown")
        for node in self.nodes:
            if self.network.attached(node.nic.nic_id):
                self.network.detach(node.nic.nic_id)

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def enable_tracing(self):
        """Attach a :class:`repro.obs.TraceBus` to this cluster's simulator.

        Observer-only: enabling tracing never changes simulated time or
        event order.  Returns the bus (also reachable as ``cluster.sim.trace``).
        """
        from ..obs import TraceBus

        return TraceBus.attach(self.sim)

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
