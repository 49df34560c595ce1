"""Fault injection: transient loss, corruption, hot-swap, crashes, kills.

The delivery model (Section 3.2) promises that the substrate masks
transient transport and reconfiguration errors while surfacing serious
conditions (remote crash, nonexistent endpoint) through return-to-sender.
This module provides the adversary: it flips links and switches up/down on
a schedule, adjusts loss/corruption probabilities, crashes/reboots nodes,
and — for the chaos harness (:mod:`repro.chaos`) — attacks the host side:
killing processes so their endpoints vanish, pausing threads so receivers
stop polling, and forcibly evicting resident endpoints.

Every injection is reported as a ``fault.inject`` event on the trace bus
with normalized attribution: the event's ``node`` is the host the fault
hits (``-1`` for cluster- or fabric-scoped faults), ``action`` names the
injection, and ``scope`` says which of the three levels it targets
(``cluster`` probabilities, ``fabric`` switches/links, ``node`` hosts and
their processes) — so a trace-driven checker can correlate faults to the
transport events they disturb.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.core import Simulator

if TYPE_CHECKING:
    from ..cluster.builder import Node
    from ..nic.endpoint_state import EndpointState
    from ..osim.process import UserProcess
    from .network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives failures against a :class:`~repro.myrinet.network.Network`."""

    def __init__(self, sim: Simulator, network: "Network"):
        self.sim = sim
        self.network = network

    def _note(self, what: str, *, action: str, scope: str, node: int = -1, **args) -> None:
        """Record one injection as a normalized ``fault.inject`` event.

        Every injection funnels through here, so this is also where the
        express delivery path learns a fault family is live and drops to
        full-fidelity wormhole simulation for the rest of the run (see
        Network.on_fault).
        """
        self.network.on_fault()
        if self.sim.trace.enabled:
            self.sim.trace.emit("fault.inject", node, what=what, action=action,
                                scope=scope, **args)

    # ---------------------------------------------------------- probability
    def set_loss(self, prob: float) -> None:
        """Set the transient packet-loss probability."""
        if not (0.0 <= prob <= 1.0):
            raise ValueError("loss probability out of range")
        self.network.cfg.packet_loss_prob = prob
        self._note(f"loss={prob}", action="set_loss", scope="cluster", prob=prob)

    def set_corruption(self, prob: float) -> None:
        if not (0.0 <= prob <= 1.0):
            raise ValueError("corruption probability out of range")
        self.network.cfg.packet_corrupt_prob = prob
        self._note(f"corrupt={prob}", action="set_corruption", scope="cluster", prob=prob)

    # ------------------------------------------------------------- hot-swap
    def set_spine(self, spine: int, up: bool) -> None:
        """Take a spine switch (and its links) down or up — hot-swap."""
        topo = self.network.topology
        sw = topo.spine_switch(spine)
        sw.up = up
        for leaf in range(topo.num_leaves):
            topo.up_links[leaf][spine].up = up
            topo.down_links[spine][leaf].up = up
        self._note(f"spine{spine} {'up' if up else 'down'}", action="hotswap_spine",
                   scope="fabric", spine=spine, up=up)

    def set_host_link(self, host: int, up: bool) -> None:
        """Disconnect/reconnect one host's cable."""
        topo = self.network.topology
        topo.host_up[host].up = up
        topo.host_down[host].up = up
        self._note(f"hostlink{host} {'up' if up else 'down'}", action="hostlink",
                   scope="node", node=host, up=up)

    def at(self, when_ns: int, fn, *args) -> None:
        """Schedule a fault action at an absolute simulation time."""
        delay = when_ns - self.sim.now
        if delay < 0:
            raise ValueError("cannot schedule a fault in the past")
        self.sim.schedule(delay, fn, *args)

    # ---------------------------------------------------------- node crash
    def crash_node(self, nic_id: int) -> None:
        """Node stops: its NIC neither receives nor sends."""
        self.network.set_nic_dead(nic_id, True)
        self._note(f"crash node{nic_id}", action="crash", scope="node", node=nic_id)

    def reboot_node(self, nic_id: int) -> None:
        """Node returns; transport channels must self-resynchronize."""
        self.network.set_nic_dead(nic_id, False)
        self._note(f"reboot node{nic_id}", action="reboot", scope="node", node=nic_id)

    # ------------------------------------------- process-level adversaries
    def kill_process(self, proc: "UserProcess") -> None:
        """Kill a user process: its endpoints vanish through the segment
        driver, and messages addressed to them must come back to their
        senders as return-to-sender (Section 3.2) — never hang."""
        node = proc.node.node_id
        proc.kill()
        self._note(f"kill {proc.name}", action="kill_process", scope="node",
                   node=node, proc=proc.name)

    def pause_process(self, proc: "UserProcess") -> None:
        """Stall a process: its threads park off-CPU and stop polling, so
        receive queues fill and senders feel NACK/backoff pressure."""
        proc.pause()
        self._note(f"pause {proc.name}", action="pause_process", scope="node",
                   node=proc.node.node_id, proc=proc.name)

    def resume_process(self, proc: "UserProcess") -> None:
        proc.resume()
        self._note(f"resume {proc.name}", action="resume_process", scope="node",
                   node=proc.node.node_id, proc=proc.name)

    def evict_endpoint(self, node: "Node", ep: "EndpointState") -> None:
        """Force a resident endpoint off its NI frame (synthetic frame
        pressure): traffic to it draws NOT_RESIDENT NACKs until the driver
        faults it back in (Section 4.2)."""
        started = node.driver.force_evict(ep)
        self._note(f"evict ep{ep.ep_id}@node{node.node_id}", action="evict_endpoint",
                   scope="node", node=node.node_id, ep=ep.ep_id, started=started)
