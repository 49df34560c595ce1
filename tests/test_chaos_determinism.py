"""Chaos runs are deterministic and the delivery contract holds under storm.

Pins the acceptance bar for :mod:`repro.chaos`:

* the same (seed, scenario, workload) triple twice gives bit-identical
  event timelines (same digest, same event count, same counters);
* a matrix of 20+ seed x scenario combinations passes every delivery
  invariant;
* killing a process mid-traffic yields RETURNED messages — never a hang,
  never duplicate delivery;
* the express path, which chaos runs exercise like any other run, is
  revoked by randomized faults without changing anything observable.
"""

import pytest

from repro.chaos import (SCENARIO_FAMILIES, ScheduleGenerator, chaos_config,
                         run_chaos)


def _gen(seed, profile="rough", duration_ns=20_000_000):
    return ScheduleGenerator(
        seed,
        num_hosts=8,
        num_spines=2,
        num_procs=4,
        num_eps=4,
        duration_ns=duration_ns,
        profile=profile,
    )


def test_same_triple_is_bit_identical():
    a = run_chaos(_gen(3).generate("mixed"), "client_server")
    b = run_chaos(_gen(3).generate("mixed"), "client_server")
    assert a.digest == b.digest
    assert (a.events, a.sim_ns) == (b.events, b.sim_ns)
    assert (a.accepted, a.delivered, a.returned) == (b.accepted, b.delivered, b.returned)


def test_different_seeds_diverge():
    a = run_chaos(_gen(1).generate("crash_storm"), "pairwise")
    b = run_chaos(_gen(2).generate("crash_storm"), "pairwise")
    assert a.digest != b.digest


def test_generated_scenarios_are_well_formed():
    # validate() raises on malformed schedules (unsorted, unclosed flaps,
    # crashes without reboots, ...) — every generated family must pass
    for seed in (1, 7):
        for profile in ("mild", "rough", "brutal"):
            for scenario in _gen(seed, profile=profile).all():
                scenario.validate()
                assert scenario.actions, scenario.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matrix_passes_all_invariants(seed):
    # 3 seeds x 9 families = 27 combos >= the 20 the acceptance bar asks
    # for; the workload rotates so each family meets every traffic shape
    # across the matrix.
    workloads = ("pairwise", "bulk", "client_server")
    gen = _gen(seed)
    for i, name in enumerate(SCENARIO_FAMILIES):
        report = run_chaos(gen.generate(name), workloads[(seed + i) % 3])
        assert report.ok, f"{report.summary()}: {report.violations[:4]}"


def test_kill_mid_traffic_returns_to_sender():
    # brutal kill_storm schedules kills in the first fifth of the window,
    # squarely mid-traffic: requests held by the killed process must come
    # back as RETURNED — the run neither hangs nor delivers twice.
    report = run_chaos(_gen(1, profile="brutal").generate("kill_storm"),
                       "client_server")
    assert report.ok, report.violations[:4]
    assert report.returned > 0
    assert report.duplicates == 0


def test_express_revocation_under_randomized_faults():
    # kill_storm's process kills and crashes disarm the express path
    # mid-flight: committed flights are revoked back to wormhole
    # processes, and the audited run must match the express-off one
    def run(express):
        cfg = chaos_config(1, num_hosts=8, express_path=express)
        return run_chaos(_gen(1).generate("kill_storm"), "client_server",
                         cfg=cfg, keep=True)

    on, off = run(True), run(False)
    assert on.ok and off.ok, (on.violations[:4], off.violations[:4])

    def observed(r):
        return (r.sim_ns, r.accepted, r.delivered, r.returned, r.duplicates,
                r.events)

    assert observed(on) == observed(off)

    # same-nanosecond events on different nodes may interleave
    # differently; each node's own order may not
    def timeline(r):
        evs = sorted(r.bus.events, key=lambda ev: (ev.ts, ev.node))
        return [(ev.ts, ev.node, ev.kind, ev.args) for ev in evs]

    assert timeline(on) == timeline(off)
    assert on.cluster.network.express.revoked > 0
    assert off.cluster.network.express.hits() == 0
