"""The tenant interference matrix: isolation SLOs audited under storms.

Runs :class:`repro.tenant.interference.InterferenceWorkload` across a
(policy x chaos-profile x seed) matrix and gates the tenant layer's
whole promise:

* **determinism** — under ``--smoke`` every cell runs twice and the two
  digests must be bit-identical (a failing cell replays exactly);
* **contract** — every cell satisfies the delivery contract (I1-I3,
  drop accounting, quiescence) and agrees across modes;
* **isolation** — for every storm cell, :func:`repro.chaos.check_isolation`
  audits the quiet tenant against an :class:`~repro.chaos.IsolationSLO`
  whose baseline p99 comes from the *same policy's fault-free cell*: the
  storm scoped to the noisy tenant may not leak faults onto quiet nodes,
  may not surface contract violations in the quiet tenant's partition,
  and may not inflate the quiet p99 beyond the SLO bound;
* **goodput floor** — the quiet tenant's answered-probe count never hits
  zero in any cell (graceful degradation, never starvation);
* **noisy traffic** — the noisy tenant services messages in every storm
  cell, so the storm meets real noisy traffic: the storm starts
  ``_STORM_SHIFT_NS`` into the run, after the noisy sources' endpoints
  are resident.

Every cell runs through :func:`repro.chaos.run_modes`, once on every
(kernel, express path, spin elision) mode; a mode disagreement is a
contract violation like any other.

Policies range from no isolation at all (``baseline``) through weighted
NI service (``weighted``) to weighted service plus a noisy-tenant send
rate limit (``rate5k``/``rate2k``).  Rates below ~2k msgs/s are
deliberately not benched: at a bucket interval of 0.5 ms and up, the
noisy tenant's own drain (bulk fragments plus sink replies share one
bucket) outlasts the chaos harness's hard quiescence deadline, so the
supervisor kills the run mid-flight — a harness artifact, not an
isolation result.

Run through the harness::

    PYTHONPATH=src python -m repro bench tenant --smoke
    PYTHONPATH=src python -m repro bench tenant          # -> BENCH_TENANT.json

The suite fails if any gate fails.  Its cells measure no wall-clock
times, so every observable reproduces bit for bit on the same tree.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..bench.harness import Suite, register
from ..chaos.invariants import IsolationSLO, check_isolation, percentile_ns
from ..chaos.runner import run_modes
from ..chaos.schedule import Scenario, ScheduleGenerator, calm_scenario
from .interference import InterferenceWorkload

__all__ = ["POLICIES", "TENANT"]

#: tenant-mix policies: kwargs layered onto InterferenceWorkload
POLICIES: dict[str, dict] = {
    # no isolation: equal weight, no reservation, unlimited noisy tenant
    "baseline": dict(quiet_weight=1, quiet_reservation=0),
    # weighted NI service + one reserved frame for the quiet tenant
    "weighted": dict(quiet_weight=4, quiet_reservation=1),
    # weighted service + noisy send-rate cap (token bucket)
    "rate5k": dict(quiet_weight=4, quiet_reservation=1,
                   noisy_rate_msgs_s=5_000.0),
    "rate2k": dict(quiet_weight=4, quiet_reservation=1,
                   noisy_rate_msgs_s=2_000.0),
}

_DURATION_NS = 20_000_000
_NUM_HOSTS = 4
#: the scoped storm starts this late: the noisy sources' endpoints page
#: in and first send at about 3.1 ms, and a storm from time zero kills
#: or pauses them before they carry any traffic
_STORM_SHIFT_NS = 4_000_000


def _storm_scenario(seed: int, wl: InterferenceWorkload,
                    profile: str) -> Scenario:
    """A tenant_storm scoped to the noisy tenant's fault domain, in the
    last ``_DURATION_NS - _STORM_SHIFT_NS`` of the run."""
    gen = ScheduleGenerator(
        seed,
        num_hosts=_NUM_HOSTS,
        num_spines=1,
        num_procs=len(wl.noisy_proc_pool) + 3,
        num_eps=5,
        duration_ns=_DURATION_NS - _STORM_SHIFT_NS,
        profile=profile,
        host_pool=wl.noisy_host_pool,
        proc_pool=wl.noisy_proc_pool,
        ep_pool=wl.noisy_ep_pool,
    )
    storm = gen.generate("tenant_storm")
    return replace(storm, duration_ns=_DURATION_NS, actions=[
        replace(a, at_ns=a.at_ns + _STORM_SHIFT_NS) for a in storm.actions])


def _quiet_percentiles(wl: InterferenceWorkload) -> tuple[int, int]:
    lats = wl.bench_latencies_ns()
    return percentile_ns(lats, 50), percentile_ns(lats, 99)


def _traced(policy: str, seed: int, storm: bool, profile: str, engine,
            baseline_p99: dict, max_p99_inflation: float,
            min_goodput_frac: float) -> dict:
    """One calm or storm cell, run on every mode (the observables are
    the default mode's).  The calm cell records the quiet tenant's p99
    in ``baseline_p99``; the storm cell of the same policy and seed is
    audited against an SLO built on it."""
    def workload():
        return InterferenceWorkload(**POLICIES[policy])

    scenario = _storm_scenario(seed, workload(), profile) if storm \
        else calm_scenario(seed, _DURATION_NS)
    report = run_modes(scenario, workload, num_hosts=_NUM_HOSTS,
                       engine=engine)
    wl = report.wl  # type: ignore[attr-defined]
    p50, p99 = _quiet_percentiles(wl)
    obs = {
        "ok": report.ok,
        "digest": report.digest,
        "sim_ms": round(report.sim_ns / 1e6, 3),
        "faults_injected": report.faults_injected,
        "accepted": report.accepted,
        "delivered": report.delivered,
        "returned": report.returned,
        "quiet": {
            "answered": wl.quiet_answered,
            "returned": wl.quiet_returned,
            "pings": wl.pings,
            "p50_us": round(p50 / 1e3, 1),
            "p99_us": round(p99 / 1e3, 1),
        },
        "tenants": wl.registry.snapshot(),
        "violations": [str(v) for v in report.violations],
    }
    if not storm:
        baseline_p99[policy, seed] = p99
    else:
        base = baseline_p99[policy, seed]
        slo = IsolationSLO(baseline_p99_ns=max(1, base),
                           max_p99_inflation=max_p99_inflation,
                           min_goodput_frac=min_goodput_frac)
        bound = round(base * max_p99_inflation)
        obs["slo"] = {
            "baseline_p99_us": round(base / 1e3, 1),
            "p99_bound_us": round(bound / 1e3, 1),
            "p99_margin_us": round((bound - p99) / 1e3, 1),
            "violations": [str(v) for v in
                           check_isolation(report.bus.events, wl, slo)],
        }
    return {"observables": obs}


def _cells(engine=None, seeds: Sequence[int] = (11, 23),
           policies: Sequence[str] = tuple(POLICIES), profile: str = "brutal",
           max_p99_inflation: float = 3.0, min_goodput_frac: float = 0.5):
    """Per (policy, seed): a fault-free *calm* cell establishing the
    admitted-contention baseline and a *storm* cell running a
    ``tenant_storm`` scoped to the noisy tenant's fault domain."""
    baseline_p99: dict = {}
    cells = []
    for policy in policies:
        for seed in seeds:
            for storm in (False, True):
                cells.append((f"{policy}/{'storm' if storm else 'calm'}/s{seed}",
                              lambda policy=policy, seed=seed, storm=storm:
                              _traced(policy, seed, storm, profile, engine,
                                      baseline_p99, max_p99_inflation,
                                      min_goodput_frac)))
    return cells


def _contract(cells: dict) -> list[str]:
    return [f"{key}: {v}" for key, c in cells.items()
            for v in c["observables"]["violations"]]


def _isolation(cells: dict) -> list[str]:
    return [f"{key}: {v}" for key, c in cells.items()
            for v in c["observables"].get("slo", {}).get("violations", [])]


def _goodput_floor(cells: dict) -> list[str]:
    return [f"{key}: the quiet tenant got no answers"
            for key, c in cells.items()
            if c["observables"]["quiet"]["answered"] == 0]


def _noisy_traffic(cells: dict) -> list[str]:
    return [f"{key}: the noisy tenant serviced no message"
            for key, c in cells.items()
            if "slo" in c["observables"]
            and c["observables"]["tenants"]["noisy"]["msgs_serviced"] == 0]


TENANT = register(Suite(
    "tenant", _cells,
    smoke={"seeds": (11,), "policies": ("baseline", "rate2k")},
    gates=(_contract, _isolation, _goodput_floor, _noisy_traffic)))
