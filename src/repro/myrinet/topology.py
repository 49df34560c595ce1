"""Fat-tree-like topology builder and static source routing.

The paper's cluster wires 100 hosts through 25 8-port switches and 185
links in a three-level "fat-tree like" arrangement (Section 2).  We build
the equivalent **two-level Clos**: leaf switches hold ``radix/2`` hosts and
``radix/2`` uplinks, and each of the ``radix/2`` spine switches connects to
*every* leaf.  This collapses the paper's physical multi-stage wiring into
one logical spine stage with the same per-leaf uplink capacity and the same
bisection ratio (uplinks == host ports at every leaf), which is what the
bisection-limited results (FT/IS in Figure 5) depend on.  The deviation is
recorded in DESIGN.md.

Routes are static per (src, dst, channel): the transport layer binds each
logical flow-control channel to one physical path (Section 5.3), and the
spread of channels over spines provides the multipath the paper exploits.
Routing adapts transparently when a spine or link is administratively
down (hot-swap, Section 3.2) by falling back to the next live spine.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.config import ClusterConfig
from ..sim.core import Simulator
from .link import DirectedLink
from .switch import Switch

__all__ = ["FatTreeTopology"]

#: cache-miss sentinel (None is a legitimate cached value: "no route")
_MISS: object = object()


class FatTreeTopology:
    """Two-level Clos: hosts -- leaf switches -- spine switches."""

    def __init__(self, sim: Simulator, cfg: ClusterConfig):
        cfg.validate()
        self.sim = sim
        self.cfg = cfg
        self.hosts_per_leaf = max(1, cfg.switch_radix // 2)
        self.num_leaves = (cfg.num_hosts + self.hosts_per_leaf - 1) // self.hosts_per_leaf
        self.num_spines = max(1, cfg.switch_radix // 2) if self.num_leaves > 1 else 0

        byte_ns = cfg.link_byte_ns
        mk = lambda name: DirectedLink(sim, name, byte_ns)  # noqa: E731

        self.switches: list[Switch] = []
        for leaf in range(self.num_leaves):
            hosts = [
                h
                for h in range(
                    leaf * self.hosts_per_leaf,
                    min((leaf + 1) * self.hosts_per_leaf, cfg.num_hosts),
                )
            ]
            self.switches.append(Switch(leaf, "leaf", hosts=hosts))
        for s in range(self.num_spines):
            self.switches.append(Switch(self.num_leaves + s, "spine"))

        # host <-> leaf links (both directions of each cable)
        self.host_up: list[DirectedLink] = []    # host -> leaf
        self.host_down: list[DirectedLink] = []  # leaf -> host
        for h in range(cfg.num_hosts):
            self.host_up.append(mk(f"h{h}->l{self.leaf_of(h)}"))
            self.host_down.append(mk(f"l{self.leaf_of(h)}->h{h}"))

        # leaf <-> spine links
        self.up_links: list[list[DirectedLink]] = []    # [leaf][spine]
        self.down_links: list[list[DirectedLink]] = []  # [spine][leaf]
        for leaf in range(self.num_leaves):
            self.up_links.append([mk(f"l{leaf}->s{s}") for s in range(self.num_spines)])
        for s in range(self.num_spines):
            self.down_links.append([mk(f"s{s}->l{leaf}") for leaf in range(self.num_leaves)])

        #: (src, dst, preferred spine) -> hop list, valid only while no
        #: switch or link has ever flipped state (see mark_dirty); routing
        #: is a pure function of that state and depends on the channel only
        #: through the preferred spine, so until the first flip a cached
        #: result is exactly what route() would recompute, and the channels
        #: that prefer one spine share one list
        self._route_cache: dict[tuple[int, int, int], Optional[list[DirectedLink]]] = {}
        self._fabric_dirty = False

    # ------------------------------------------------------------- queries
    def leaf_of(self, host: int) -> int:
        return host // self.hosts_per_leaf

    def spine_switch(self, s: int) -> Switch:
        return self.switches[self.num_leaves + s]

    def leaf_switch(self, leaf: int) -> Switch:
        return self.switches[leaf]

    @property
    def all_links(self) -> list[DirectedLink]:
        links = list(self.host_up) + list(self.host_down)
        for row in self.up_links:
            links.extend(row)
        for row in self.down_links:
            links.extend(row)
        return links

    def num_cables(self) -> int:
        """Physical (bidirectional) cable count, host links included."""
        return self.cfg.num_hosts + self.num_leaves * self.num_spines

    # ------------------------------------------------------------- routing
    def route(self, src: int, dst: int, channel: int = 0) -> Optional[list[DirectedLink]]:
        """Static source route for a channel; None if disconnected.

        Falls back deterministically to the next live spine when the
        preferred one is down, so reconfiguration is masked from the
        transport layer (Section 3.2).
        """
        if src == dst:
            return []
        sl, dl = self.leaf_of(src), self.leaf_of(dst)
        if not (self.leaf_switch(sl).up and self.leaf_switch(dl).up):
            return None
        first, last = self.host_up[src], self.host_down[dst]
        if not (first.up and last.up):
            return None
        if sl == dl:
            return [first, last]
        if self.num_spines == 0:
            return None
        preferred = (src + dst + channel) % self.num_spines
        for probe in range(self.num_spines):
            s = (preferred + probe) % self.num_spines
            up, down = self.up_links[sl][s], self.down_links[s][dl]
            if self.spine_switch(s).up and up.up and down.up:
                return [first, up, down, last]
        return None

    def mark_dirty(self) -> None:
        """A switch or link changed state: stop serving cached routes.

        Sticky by design: reconfiguration is rare (hot-swap experiments),
        and a permanently cold cache after the first fault keeps the
        invalidation logic trivially correct.
        """
        self._fabric_dirty = True
        self._route_cache.clear()

    def cached_route(self, src: int, dst: int, channel: int = 0) -> Optional[list[DirectedLink]]:
        """Like :meth:`route` but memoized while the fabric is pristine.

        Callers must not mutate the returned list.  After the first
        administrative state flip this degrades to a plain route().
        """
        if self._fabric_dirty:
            return self.route(src, dst, channel)
        spines = self.num_spines
        key = (src, dst, (src + dst + channel) % spines if spines else 0)
        cache = self._route_cache
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        r = self.route(src, dst, channel)
        cache[key] = r
        return r

    def hop_count(self, src: int, dst: int) -> int:
        """Number of switches a packet traverses."""
        if src == dst:
            return 0
        return 1 if self.leaf_of(src) == self.leaf_of(dst) else 3
