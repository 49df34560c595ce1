"""Deterministic chaos-run execution and reporting.

``run_chaos(scenario, workload)`` builds a fresh cluster, attaches the
trace bus, resolves the scenario's abstract fault actions against the
live cluster/workload, drives the traffic to quiescence, and audits the
timeline with :mod:`repro.chaos.invariants`.

Determinism is the load-bearing property: the same ``(seed, scenario,
workload)`` must produce a bit-identical event timeline on every run so
a chaos failure found in CI replays locally.  Two things make that true:

* every run gets a *fresh* :class:`~repro.cluster.builder.Cluster` with
  its own seeded RNG streams, and
* the module-global id counters (message ids, packet transmit ids, bulk
  transfer ids, thread ids) are rewound first — they are cosmetic
  labels, but they appear in trace events, so a previous run in the same
  process would otherwise shift the digest.

The timeline digest is the canonical digest over the normalized events;
``tests/test_chaos_determinism.py`` pins the bit-identical guarantee.

``run_modes(scenario, workload)`` is the mode-equivalence oracle: it
runs the same cell once per (kernel, express path, spin elision) mode
in :data:`MODES` and reports every disagreement between two modes that
differ in one setting as an ``M.mode`` violation.  Every such pair must
agree on every count and violation the report carries,
``NetworkStats``, each link's ``(bytes, packets, busy_ns)`` ledger and
the workload's host-side observables that no trace event carries
(application send/receipt counts, the latencies it reports, tenant
accounting).  Two kernels with the same express and elision settings
must also agree on the raw timeline digest and the kernel's event count
(the reference kernel is the ordering oracle for the optimized one).
Express on and off, and elision on and off, under the same kernel must
instead agree on the timeline after a stable sort by ``(ts, node)``:
same-nanosecond events on *different* nodes may interleave differently,
one node's own order may not.  Kernel event counts are not compared
across those settings, since eliding events is their whole point.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Generator, Optional

from ..bench.harness import digest
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..sim import ENGINE_NAMES
from ..sim.core import AllOf, SimError
from .invariants import (DeliveryChecker, Violation, check_drop_accounting,
                         check_quiescence)
from .schedule import FaultAction, Scenario
from .workloads import ChaosWorkload, make_workload

__all__ = ["ChaosReport", "MODES", "chaos_config", "run_chaos", "run_modes",
           "reset_global_ids", "timeline_digest"]

#: every (engine, express path, spin elision) combination a chaos cell runs on
MODES = tuple(itertools.product(ENGINE_NAMES, (True, False), (True, False)))


def reset_global_ids() -> None:
    """Rewind the cosmetic module-global id counters (see module doc)."""
    from ..am import endpoint as am_endpoint
    from ..myrinet import packet as myrinet_packet
    from ..nic import message as nic_message
    from ..osim import threads as osim_threads

    nic_message._msg_ids = itertools.count(1)
    myrinet_packet._packet_ids = itertools.count(1)
    am_endpoint._transfer_ids = itertools.count(1)
    osim_threads._thread_ids = itertools.count(1)


def chaos_config(seed: int, num_hosts: int = 8, **overrides) -> ClusterConfig:
    """A cluster sized and timed for fast chaos runs.

    Transport timeouts are compressed (dead timeout 6 ms instead of
    50 ms) so scenarios heal and settle within tens of simulated
    milliseconds; the protocol behaviour under test is unchanged.
    """
    base = dict(
        num_hosts=num_hosts,
        seed=seed,
        dead_timeout_ms=6.0,
        retrans_timeout_us=500.0,
        retrans_backoff_max_us=1_000.0,
        rebind_delay_us=150.0,
        not_resident_retry_us=300.0,
        ep_alloc_us=50.0,
        spin_before_block_us=5.0,
    )
    base.update(overrides)
    return ClusterConfig().with_(**base)


def timeline_digest(events) -> str:
    """The canonical digest over normalized ``(ts, kind, node, args)``
    event records — the bit-identity witness."""
    return digest(*((ev.ts, ev.kind, ev.node,
                     sorted(ev.args.items()) if ev.args else [])
                    for ev in events))


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    scenario: str
    profile: str
    workload: str
    seed: int
    sim_ns: int = 0
    events: int = 0
    digest: str = ""
    accepted: int = 0
    delivered: int = 0
    returned: int = 0
    duplicates: int = 0
    faults_injected: int = 0
    violations: list[Violation] = field(default_factory=list)
    #: delivery rate inside crash-outage windows vs outside (msgs/s)
    goodput_outage_msg_s: Optional[float] = None
    goodput_clear_msg_s: float = 0.0
    #: worst time from a reboot to the node's next delivery involvement
    recovery_ns: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        rec = (f" recovery={self.recovery_ns / 1e6:.2f}ms"
               if self.recovery_ns is not None else "")
        return (f"{self.scenario}[{self.profile}]/{self.workload} seed={self.seed}: "
                f"{status}; {self.accepted} accepted -> {self.delivered} delivered "
                f"+ {self.returned} returned, {self.faults_injected} faults, "
                f"{self.events} events{rec}")


def _resolve_action(action: FaultAction, cluster: Cluster,
                    workload: ChaosWorkload) -> Optional[tuple]:
    """Map an abstract action to ``(callable, args)`` on the live objects."""
    faults = cluster.faults
    kind, p = action.kind, action.params
    if kind == "set_loss":
        return faults.set_loss, p
    if kind == "set_corruption":
        return faults.set_corruption, p
    if kind == "spine":
        return faults.set_spine, p
    if kind == "hostlink":
        return (faults.set_host_link, p) if p[0] < cluster.cfg.num_hosts else None
    if kind == "crash":
        return (cluster.crash_node, p) if p[0] < cluster.cfg.num_hosts else None
    if kind == "reboot":
        return (cluster.reboot_node, p) if p[0] < cluster.cfg.num_hosts else None
    if kind in ("kill_proc", "pause_proc", "resume_proc"):
        if p[0] >= len(workload.procs):
            return None
        proc = workload.procs[p[0]]
        fn = {"kill_proc": faults.kill_process,
              "pause_proc": faults.pause_process,
              "resume_proc": faults.resume_process}[kind]
        return fn, (proc,)
    if kind == "evict_ep":
        if not workload.eviction_targets:
            return None
        node, ep = workload.eviction_targets[p[0] % len(workload.eviction_targets)]
        return faults.evict_endpoint, (node, ep)
    raise ValueError(f"unresolvable action {action}")


def _availability(checker: DeliveryChecker, events,
                  report: ChaosReport) -> None:
    """Goodput inside/outside crash outages + worst recovery time."""
    outages: list[tuple[int, int, int]] = []  # (node, crash_ts, reboot_ts)
    open_crash: dict[int, int] = {}
    for ev in events:
        if ev.kind != "fault.inject":
            continue
        if ev.get("action") == "crash":
            open_crash[ev.node] = ev.ts
        elif ev.get("action") == "reboot" and ev.node in open_crash:
            outages.append((ev.node, open_crash.pop(ev.node), ev.ts))
    outage_ns = sum(t1 - t0 for _, t0, t1 in outages)
    clear_ns = max(1, report.sim_ns - outage_ns)
    in_outage = clear = 0
    for dels in checker.deliveries.values():
        for _, ts, _, _ in dels:
            if any(t0 <= ts <= t1 for _, t0, t1 in outages):
                in_outage += 1
            else:
                clear += 1
    report.goodput_clear_msg_s = clear * 1e9 / clear_ns
    if outage_ns:
        report.goodput_outage_msg_s = in_outage * 1e9 / outage_ns
    worst: Optional[int] = None
    for node, _, reboot_ts in outages:
        first_after: Optional[int] = None
        for dels in checker.deliveries.values():
            for _, ts, receiver, sender in dels:
                if ts >= reboot_ts and node in (receiver, sender):
                    if first_after is None or ts < first_after:
                        first_after = ts
        if first_after is not None:
            rec = first_after - reboot_ts
            if worst is None or rec > worst:
                worst = rec
    report.recovery_ns = worst


def run_chaos(
    scenario: Scenario,
    workload: str | ChaosWorkload = "pairwise",
    *,
    cfg: Optional[ClusterConfig] = None,
    num_hosts: int = 8,
    trace_path: Optional[str] = None,
    keep: bool = False,
    engine=None,
    **workload_kwargs,
) -> ChaosReport:
    """Execute one (scenario, workload) chaos run and audit it.

    ``trace_path``: on invariant failure, export the timeline there as
    Chrome trace JSON (always exported when ``trace_path`` is set and
    the run fails; never otherwise).  ``keep=True`` attaches the live
    ``cluster``/``bus``/``workload`` to the report for tests.
    ``engine`` names the event kernel (:func:`repro.sim.resolve_kernel`);
    :func:`run_modes` runs one cell on every kernel.
    """
    scenario.validate()
    reset_global_ids()
    if cfg is None:
        cfg = chaos_config(scenario.seed, num_hosts=num_hosts)
    cluster = Cluster(cfg, engine=engine)
    bus = cluster.enable_tracing()
    wl = workload if isinstance(workload, ChaosWorkload) \
        else make_workload(workload, **workload_kwargs)
    report = ChaosReport(scenario=scenario.name, profile=scenario.profile,
                         workload=wl.name, seed=scenario.seed)

    sim = cluster.sim
    sim.run_process(wl.build(cluster), name="chaos.setup")
    wl.give_up_ns = 3 * cfg.dead_timeout_ns

    t0 = sim.now
    for action in scenario.actions:
        resolved = _resolve_action(action, cluster, wl)
        if resolved is not None:
            fn, args = resolved
            cluster.faults.at(t0 + action.at_ns, fn, *args)
    wl.start()

    drain_ns = 2 * cfg.dead_timeout_ns + 1_000_000
    tail_ns = 200_000

    def supervise() -> Generator:
        yield wl.quota_done()
        t_end = t0 + scenario.duration_ns
        if sim.now < t_end:
            yield sim.timeout(t_end - sim.now)
        yield sim.timeout(drain_ns)
        wl.stop_receivers()
        pending = [t.done for t in wl.all_threads]
        if pending:
            yield AllOf(sim, pending)
        yield sim.timeout(tail_ns)

    hard_deadline = (t0 + scenario.duration_ns + wl.give_up_ns + drain_ns
                     + 5 * cfg.dead_timeout_ns + 5_000_000)
    try:
        sim.run_process(supervise(), name="chaos.supervisor", until=hard_deadline)
    except SimError:
        report.violations.append(Violation(
            "Q.hang", f"run did not reach quiescence by t={hard_deadline}ns "
            "(supervisor stuck: blocked thread or unresolved traffic)",
            ts=sim.now))

    events = bus.events
    checker = DeliveryChecker(events)
    report.violations += checker.check()
    report.violations += check_drop_accounting(cluster.network, events)
    report.violations += check_quiescence(cluster, wl)

    report.sim_ns = sim.now
    report.events = len(events)
    report.digest = timeline_digest(events)
    report.accepted = len(checker.accepted)
    report.delivered = sum(1 for d in checker.deliveries.values() if d)
    report.returned = sum(1 for r in checker.returns.values() if r)
    report.duplicates = sum(1 for d in checker.deliveries.values() if len(d) > 1)
    report.faults_injected = sum(1 for ev in events if ev.kind == "fault.inject")
    _availability(checker, events, report)

    if trace_path and not report.ok:
        from ..obs.export import write_chrome_trace

        os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
        write_chrome_trace(bus, trace_path,
                           label=f"chaos:{scenario.name}:{wl.name}:{scenario.seed}")
    if keep:
        report.cluster = cluster  # type: ignore[attr-defined]
        report.bus = bus  # type: ignore[attr-defined]
        report.wl = wl  # type: ignore[attr-defined]
    bus.detach()
    return report


#: observables only two kernels with the same express and elision
#: settings must agree on; every compared pair of modes must agree on the
#: rest of ``_mode_observables``
_KERNEL_KEYS = ("digest", "events_dispatched")
#: report fields every pair of modes must agree on
_REPORT_FIELDS = ("sim_ns", "events", "accepted", "delivered", "returned",
                  "duplicates", "faults_injected", "goodput_clear_msg_s",
                  "goodput_outage_msg_s", "recovery_ns", "violations")


def _mode_name(mode: tuple[str, bool, bool]) -> str:
    engine, express, elision = mode
    return (f"{engine}/express-{'on' if express else 'off'}"
            f"/elision-{'on' if elision else 'off'}")


def _mode_observables(report: ChaosReport) -> dict:
    """One kept run reduced to the flat record the modes are compared on."""
    net = report.cluster.network  # type: ignore[attr-defined]
    obs = {"digest": report.digest,
           "events_dispatched":
               report.cluster.sim.events_dispatched}  # type: ignore[attr-defined]
    obs.update((name, getattr(report, name)) for name in _REPORT_FIELDS)
    obs.update((f"net.{k}", v) for k, v in asdict(net.stats).items())
    obs.update((f"link.{link.name}",
                (link.bytes_carried, link.packets_carried, link.busy_ns))
               for link in net.topology.all_links)
    # host-side observables no trace event carries: application counts,
    # the latencies a bench cell reports and the tenant accounting
    wl = report.wl  # type: ignore[attr-defined]
    obs.update((f"wl.{k}", getattr(wl, k))
               for k in ("sent", "handled", "returned_seen"))
    if hasattr(wl, "bench_latencies_ns"):
        obs["wl.latencies_ns"] = wl.bench_latencies_ns()
    if hasattr(wl, "registry"):
        obs["wl.tenants"] = wl.registry.snapshot()
        obs["wl.quiet"] = (wl.quiet_answered, wl.quiet_returned)
    return obs


def _first_difference(a: ChaosReport, b: ChaosReport) -> Optional[str]:
    """The first observable two modes disagree on, or None."""
    oa, ob = _mode_observables(a), _mode_observables(b)
    ca, cb = a.cluster.cfg, b.cluster.cfg  # type: ignore[attr-defined]
    kernels_only = (ca.express_path == cb.express_path
                    and ca.spin_elision == cb.spin_elision)
    keys = [k for k in oa if kernels_only or k not in _KERNEL_KEYS]
    for key in keys:
        if oa[key] != ob[key]:
            return f"{key}: {oa[key]!r:.120} != {ob[key]!r:.120}"
    if a.digest != b.digest and not kernels_only:
        def ordered(r):
            return timeline_digest(sorted(r.bus.events, key=lambda ev: (ev.ts, ev.node)))
        if ordered(a) != ordered(b):
            return "timeline sorted by (ts, node) differs"
    return None


def run_modes(
    scenario: Scenario,
    workload: str | Callable[[], ChaosWorkload],
    *,
    num_hosts: int = 8,
    engine=None,
    trace_path: Optional[str] = None,
) -> ChaosReport:
    """Run one chaos cell on every mode in :data:`MODES` and cross-check.

    ``workload`` is a registry name or a zero-argument factory, so every
    mode gets a fresh instance.  Every mode runs on :func:`chaos_config`
    with ``express_path`` and ``spin_elision`` set per mode.  Returns the
    default mode's report (``engine``, express and elision on) as
    ``run_chaos(keep=True)`` leaves it, with one ``M.mode`` violation
    appended per pair of modes, differing in one setting, that disagree
    (see the module doc for what each pair compares).
    ``trace_path`` receives the default mode's timeline on a contract
    failure, and both modes' timelines next to it on a disagreement.
    """
    cfg = chaos_config(scenario.seed, num_hosts=num_hosts)
    default = (engine or cfg.engine, True, True)
    runs: dict[tuple[str, bool, bool], ChaosReport] = {}
    for mode in MODES:
        wl = make_workload(workload) if isinstance(workload, str) else workload()
        runs[mode] = run_chaos(scenario, wl,
                               cfg=cfg.with_(express_path=mode[1], spin_elision=mode[2]),
                               engine=mode[0], keep=True,
                               trace_path=trace_path if mode == default else None)
    diffs = [(a, b, _first_difference(runs[a], runs[b]))
             for a, b in itertools.combinations(MODES, 2)
             if sum(x != y for x, y in zip(a, b)) == 1]  # one setting differs
    report = runs[default]
    for a, b, diff in diffs:
        if diff is None:
            continue
        report.violations.append(Violation(
            "M.mode", f"{_mode_name(a)} vs {_mode_name(b)}: {diff}"))
        if trace_path:
            from ..obs.export import write_chrome_trace

            stem, ext = os.path.splitext(trace_path)
            os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
            for mode in (a, b):
                write_chrome_trace(
                    runs[mode].bus,  # type: ignore[attr-defined]
                    f"{stem}.{_mode_name(mode).replace('/', '-')}{ext}",
                    label=f"chaos:{scenario.name}:{scenario.seed}:{_mode_name(mode)}")
    return report
