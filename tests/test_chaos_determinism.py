"""Chaos runs are deterministic and the delivery contract holds under storm.

Pins the acceptance bar for :mod:`repro.chaos`:

* the same (seed, scenario, workload) triple twice gives bit-identical
  event timelines (same digest, same event count, same counters);
* a matrix of 20+ seed x scenario combinations passes every delivery
  invariant;
* killing a process mid-traffic yields RETURNED messages — never a hang,
  never duplicate delivery;
* ``run_modes`` finds every (kernel, express path, spin elision) mode in
  agreement on calm and faulted cells, with the express path really
  committing and being revoked, and names the mode pair when one mode is
  perturbed;
* quiescence flags an express flight still committed, and a CPU still
  leased to a finished thread, at scenario end;
* the chaos bench takes the matrix keywords EXPERIMENTS.md documents for
  replaying a failing cell.
"""

import functools
import inspect

import pytest

from repro.chaos import (MODES, SCENARIO_FAMILIES, ScheduleGenerator,
                         calm_scenario, check_quiescence, make_workload,
                         run_chaos, run_modes)
from repro.bench import chaos as chaos_bench
from repro.chaos import runner
from repro.cluster import Cluster, ClusterConfig
from repro.myrinet import Network, Packet, PacketType
from repro.sim import ReferenceSimulator
from repro.tenant.interference import InterferenceWorkload


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


# ------------------------------------------------------ mode equivalence
#: reduced shapes so every cell runs on all four modes inside the budget
_MODE_WORKLOADS = {
    "pairwise": functools.partial(make_workload, "pairwise", requests=20),
    "client_server": functools.partial(make_workload, "client_server",
                                       requests=15),
    "incast": functools.partial(make_workload, "incast", senders=3,
                                rounds=3, burst=2),
}


def _mode_cells():
    faulted = _gen(1, duration_ns=10_000_000).generate("kill_storm")
    for scenario in (calm_scenario(1, 10_000_000), faulted):
        for name, factory in _MODE_WORKLOADS.items():
            yield scenario, name, factory
    # full-size kill_storm/client_server: its kills and crashes revoke
    # committed flights in every express-on run
    yield _gen(1).generate("kill_storm"), "client_server", "client_server"


def _spy_modes(monkeypatch, after=None):
    """Record each mode's kept report as ``run_modes`` produces it;
    ``after(mode, report)`` may perturb one before it is compared."""
    seen = []
    real = runner.run_chaos

    def spy(scenario, wl, *, cfg, engine, **kw):
        report = real(scenario, wl, cfg=cfg, engine=engine, **kw)
        mode = (engine, cfg.express_path, cfg.spin_elision)
        if after is not None:
            after(mode, report)
        seen.append((mode, report.cluster.network.express))
        return report

    monkeypatch.setattr(runner, "run_chaos", spy)
    return seen


def test_modes_agree_on_calm_and_faulted_cells(monkeypatch):
    seen = _spy_modes(monkeypatch)
    for scenario, name, factory in _mode_cells():
        report = run_modes(scenario, factory)
        assert report.ok, f"{scenario.name}/{name}: {report.violations[:4]}"
    assert sorted({mode for mode, _ in seen}) == sorted(MODES)
    # non-vacuous: the express path committed flights and faults revoked
    # some of them, while express-off runs never touched it
    on = [x for (_, express, _), x in seen if express]
    assert sum(x.commits for x in on) > 0
    assert sum(x.revoked for x in on) > 0
    assert all(x.revoked > 0 for (_, express, _), x in seen[-len(MODES):]
               if express)
    assert all(x.hits() == 0 for (_, express, _), x in seen if not express)


def _late_delivery(monkeypatch):
    """Reference kernel, express on: the first express delivery of each
    run lands 1 ns late."""
    real = Network._express_fire
    delayed = set()

    def fire(self, fl):
        if isinstance(self.sim, ReferenceSimulator) and id(self) not in delayed:
            delayed.add(id(self))
            self.sim.call_after(1, real, self, fl)
            return
        real(self, fl)

    monkeypatch.setattr(Network, "_express_fire", fire)


def _bump(monkeypatch, counter):
    """Sequential kernel, express and elision on: one counter is off by
    one at the end of the run (``counter(report)`` returns its owner and
    name)."""
    def after(mode, report):
        if mode == ("sequential", True, True):
            owner, name = counter(report)
            setattr(owner, name, getattr(owner, name) + 1)

    _spy_modes(monkeypatch, after=after)


def _bumped_net_counter(monkeypatch):
    _bump(monkeypatch, lambda r: (r.cluster.network.stats, "delivered"))


def _bumped_tenant_counter(monkeypatch):
    _bump(monkeypatch, lambda r: (r.wl.quiet.stats, "msgs_serviced"))


#: a tenant cell cut to a few milliseconds: quiet pings beside noisy bulk
_SMALL_TENANT = functools.partial(InterferenceWorkload, pings=10,
                                  transfers=4, noisy_duration_us=2_000.0)


@pytest.mark.parametrize("perturb, workload, num_hosts, expected", [
    (_late_delivery, _MODE_WORKLOADS["pairwise"], 8, {
        "sequential/express-on/elision-on vs reference/express-on/elision-on: digest",
        "sequential/express-on/elision-off vs reference/express-on/elision-off: digest",
        "reference/express-on/elision-on vs reference/express-off/elision-on: link.",
        "reference/express-on/elision-off vs reference/express-off/elision-off: link.",
    }),
    (_bumped_net_counter, _MODE_WORKLOADS["pairwise"], 8, {
        "sequential/express-on/elision-on vs sequential/express-off/elision-on: net.delivered",
        "sequential/express-on/elision-on vs sequential/express-on/elision-off: net.delivered",
        "sequential/express-on/elision-on vs reference/express-on/elision-on: net.delivered",
    }),
    (_bumped_tenant_counter, _SMALL_TENANT, 4, {
        "sequential/express-on/elision-on vs sequential/express-off/elision-on: wl.tenants",
        "sequential/express-on/elision-on vs sequential/express-on/elision-off: wl.tenants",
        "sequential/express-on/elision-on vs reference/express-on/elision-on: wl.tenants",
    }),
], ids=["late_delivery", "net_counter", "tenant_counter"])
def test_modes_name_the_disagreeing_pair(monkeypatch, tmp_path, perturb,
                                        workload, num_hosts, expected):
    perturb(monkeypatch)
    scenario = calm_scenario(1, 10_000_000)
    report = run_modes(scenario, workload, num_hosts=num_hosts,
                       trace_path=str(tmp_path / "cell.json"))
    found = [str(v) for v in report.violations]
    assert all(v.startswith("[M.mode] ") for v in found), found
    assert len(found) == len(expected), found
    for prefix in expected:
        assert any(v.startswith(f"[M.mode] {prefix}") for v in found), found
    # both modes of every disagreeing pair leave their timeline behind
    named = {m.replace("/", "-") for p in expected
             for m in p.split(":")[0].split(" vs ")}
    assert {f.name for f in tmp_path.iterdir()} == {
        f"cell.{m}.json" for m in named}


def test_quiescence_flags_a_committed_flight():
    cluster = Cluster(ClusterConfig(num_hosts=4))
    assert not [v for v in check_quiescence(cluster) if v.invariant == "Q.flight"]
    cluster.network.send(Packet(0, 2, PacketType.DATA, payload_bytes=16,
                                msg_id=7))
    assert len(cluster.network._flights) == 1
    flagged = [v for v in check_quiescence(cluster) if v.invariant == "Q.flight"]
    assert len(flagged) == 1 and flagged[0].msg_id == 7


def test_quiescence_flags_a_cpu_leased_to_a_finished_thread():
    cluster = Cluster(ClusterConfig(num_hosts=4))
    cpu = cluster.node(1).cpu

    def body(thr):
        yield from thr.compute(1_000)

    thr = cluster.node(1).start_process().spawn_thread(body)
    cluster.run(until=cluster.sim.now + 100_000)
    assert thr.finished and cpu.holder is None
    assert not [v for v in check_quiescence(cluster) if v.invariant == "Q.cpu"]
    cpu._grant(thr, 0)  # hand-built: the lease stuck on the dead thread
    flagged = [v for v in check_quiescence(cluster) if v.invariant == "Q.cpu"]
    assert len(flagged) == 1 and "node 1" in flagged[0].detail


def test_kept_report_keeps_the_workload_name():
    report = run_modes(calm_scenario(1, 4_000_000), "bulk")
    assert "/bulk seed=1" in report.summary()
    assert report.wl.name == "bulk"  # the live workload, beside its name


def test_chaos_cells_take_the_documented_replay_keywords():
    params = inspect.signature(chaos_bench._cells).parameters
    assert {"seeds", "scenarios", "workloads", "profile", "trace_dir"} <= set(params)
