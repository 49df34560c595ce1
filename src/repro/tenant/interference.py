"""The noisy-neighbor workload: two tenants, one fabric, one shared NI.

A latency-sensitive **quiet** tenant runs a LogP-style ping-pong between
nodes 0 and 1 (one small request per probe period, RTT recorded), while
a **noisy** tenant blasts bulk transfers from sources on nodes 2 and 3
into a sink endpoint *co-located on quiet node 1*.  That co-location is
the point: node 1's NI serves both the quiet pong replies and the noisy
sink's bulk replies from one send rotation, and its host link carries
both ping arrivals and converging bulk fragments — the classic shared-NI
noisy-neighbor coupling the tenant layer's weighted service exists to
bound.

Process index 0 is the quiet pinger (the observer generated schedules
never kill).  The noisy tenant's *fault domain* — the processes, hosts
and eviction targets a scoped storm may hit — is exposed as
``noisy_proc_pool`` / ``noisy_host_pool`` / ``noisy_ep_pool``, and
deliberately contains only the source side (nodes 2-3): faulting the
co-located sink would land ``fault.inject`` events on a quiet node and
muddy the attribution :func:`repro.chaos.invariants.check_isolation`
audits.
"""

from __future__ import annotations

from typing import Generator

from ..am.vnet import parallel_vnet
from ..chaos.workloads import WORKLOADS, ChaosWorkload, _poll_wait, _quiescent, _resolved
from .core import Tenant, TenantRegistry

__all__ = ["InterferenceWorkload"]


class InterferenceWorkload(ChaosWorkload):
    """Quiet ping-pong (nodes 0-1) vs noisy bulk fan-in (2,3 -> sink on 1)."""

    name = "interference"

    def __init__(
        self,
        pings: int = 120,
        ping_period_us: float = 150.0,
        transfers: int = 30,
        bulk_payload: int = 24_576,
        noisy_duration_us: float = 18_000.0,
        quiet_weight: int = 4,
        quiet_reservation: int = 1,
        noisy_rate_msgs_s: float | None = None,
        noisy_frame_quota: int | None = None,
    ):
        super().__init__(requests=pings, payload=16)
        self.pings = pings
        self.ping_period_ns = round(ping_period_us * 1_000)
        self.transfers = transfers
        self.bulk_payload = bulk_payload
        self.noisy_deadline_ns = round(noisy_duration_us * 1_000)
        self.registry = TenantRegistry()
        self.quiet: Tenant = self.registry.create(
            "quiet", weight=quiet_weight, frame_reservation=quiet_reservation)
        self.noisy: Tenant = self.registry.create(
            "noisy", rate_msgs_per_s=noisy_rate_msgs_s,
            frame_quota=noisy_frame_quota)
        #: per-probe round-trip times on the quiet tenant (simulated ns)
        self.rtt_ns: list[int] = []
        #: quiet probes answered / returned undeliverable
        self.quiet_answered = 0
        self.quiet_returned = 0
        self.quiet_vnet = None
        self.noisy_vnet = None

    # fixed roles on four fixed nodes; the noisy sink lives on quiet
    # node 1 (shared NI) but belongs to the noisy tenant
    num_hosts_needed = 4
    quiet_nodes = frozenset((0, 1))
    noisy_nodes = frozenset((2, 3))

    @property
    def noisy_host_pool(self) -> list[int]:
        return sorted(self.noisy_nodes)

    @property
    def noisy_proc_pool(self) -> list[int]:
        # procs: 0=ping, 1=pong, 2=src@2, 3=src@3, 4=sink@1 (not poolable:
        # killing it would inject faults on a quiet node)
        return [2, 3]

    @property
    def noisy_ep_pool(self) -> list[int]:
        return [2, 3]  # eviction_targets indices of the noisy source eps

    def build(self, cluster) -> Generator:
        self.cluster = cluster
        self.quiet_vnet = yield from parallel_vnet(cluster, [0, 1])
        # rank 0 = sink on node 1, ranks 1/2 = sources on nodes 2/3
        self.noisy_vnet = yield from parallel_vnet(cluster, [1, 2, 3])
        roles = (
            ("ping", 0, self.quiet_vnet[0], self.quiet),
            ("pong", 1, self.quiet_vnet[1], self.quiet),
            ("src2", 2, self.noisy_vnet[1], self.noisy),
            ("src3", 3, self.noisy_vnet[2], self.noisy),
            ("sink", 1, self.noisy_vnet[0], self.noisy),
        )
        for role, node_id, ep, tenant in roles:
            self._adopt(cluster.node(node_id), f"tenant.{role}", ep)
            tenant.adopt(ep)
        self.registry.validate_against(cluster.cfg.endpoint_frames)

    def start(self) -> None:
        ping_p, pong_p, src2_p, src3_p, sink_p = self.procs
        self._spawn(self.sender_threads, ping_p,
                    self._ping_body(self.quiet_vnet[0]), "tenant.ping")
        self._spawn(self.receiver_threads, pong_p,
                    self._receiver_body(self.quiet_vnet[1]), "tenant.pong")
        for proc, rank in ((src2_p, 1), (src3_p, 2)):
            self._spawn(self.sender_threads, proc,
                        self._bulk_body(self.noisy_vnet[rank]), f"tenant.src{rank + 1}")
        self._spawn(self.receiver_threads, sink_p,
                    self._receiver_body(self.noisy_vnet[0]), "tenant.sink")

    def _bulk_body(self, ep):
        """Noisy source: blast transfers for a *time budget*, not a quota.

        A rate-limited tenant pushes its quota arbitrarily slowly, so a
        fixed count would stretch the run past the chaos hard deadline;
        a real noisy neighbor blasts for the duration of the scenario
        and then stops.  ``transfers`` still caps the total.
        """
        sim = ep.node.sim
        fired = 0

        def traffic(thr):
            nonlocal fired
            t_deadline = sim.now + self.noisy_deadline_ns
            for _ in range(self.transfers):
                if sim.now >= t_deadline:
                    break
                ok = yield from self._guarded_request(
                    thr, ep, 0, nbytes=self.bulk_payload)
                if not ok:
                    break
                fired += 1

        def linger(thr):
            # Unlike the default drain, keep polling after the stop flag
            # until every fired transfer resolved AND the endpoint has
            # been quiet for a linger window: a rate-limited sink
            # trickles its last (possibly duplicate) replies out one
            # bucket interval at a time long after traffic stopped, and
            # exiting between two trickles would leave them undrained
            # (a Q violation).
            bucket = self.noisy.bucket
            window = max(1_000_000, 3 * bucket.interval_ns if bucket else 0)
            deadline = None
            last_arrival = sim.now

            def done(processed):
                nonlocal deadline, last_arrival
                if processed:
                    last_arrival = sim.now
                if not self._stop["flag"]:
                    return False
                if deadline is None:
                    deadline = sim.now + self.give_up_ns
                return (_resolved(ep) >= fired and _quiescent(ep)
                        and sim.now - last_arrival >= window) \
                    or sim.now >= deadline
            yield from self._drain_loop(thr, ep, done)

        return self._sender_body(ep, [0], traffic, linger)

    def _ping_body(self, ep):
        sim = ep.node.sim

        def traffic(thr):
            t_start = sim.now
            for i in range(self.pings):
                # fixed probe cadence: one RTT sample per period
                target = t_start + i * self.ping_period_ns
                if sim.now < target:
                    yield from thr.sleep(target - sim.now)
                t0 = sim.now
                base_rep = ep.stats.replies_handled
                base_ret = ep.stats.undeliverable
                ok = yield from self._guarded_request(
                    thr, ep, 1, nbytes=self.payload)
                if not ok:
                    continue
                yield from _poll_wait(
                    thr, ep, lambda: _resolved(ep) > base_rep + base_ret,
                    deadline=sim.now + self.give_up_ns)
                if ep.stats.replies_handled > base_rep:
                    self.quiet_answered += 1
                    self.rtt_ns.append(sim.now - t0)
                elif ep.stats.undeliverable > base_ret:
                    self.quiet_returned += 1
        return self._sender_body(ep, [1], traffic)

    def bench_latencies_ns(self) -> list[int]:
        return sorted(self.rtt_ns)


WORKLOADS[InterferenceWorkload.name] = InterferenceWorkload
