"""The fleet-scale overcommit macro-model (``repro.scale.fleet``).

Tiny cells here; the committed ``BENCH_FLEET.json`` holds the full
(hosts × ratio × policy) grid.  What must hold at any size:

* **Determinism** — the same cell config produces a bit-identical
  digest on every run, and different seeds diverge;
* **Graceful degradation** — no cell ever reaches zero goodput, even at
  the diurnal trough of a heavily overcommitted fleet (the paper's
  central scaling claim at fleet shape);
* **Memory** — a 10^5-endpoint fleet's endpoint state fits the
  documented tracemalloc budget, because every NI uses the
  struct-of-arrays :class:`~repro.nic.endpoint_state.EndpointTable`;
* **Arrival shapes** — the registered models produce the intended
  intensity envelopes (diurnal trough, bursty duty cycle).
"""

import pytest

from repro.api import run_bench
from repro.bench.harness import validate
from repro.scale import (
    ARRIVAL_MODELS,
    DEFAULT_FLEET_POLICIES,
    FleetCellConfig,
    run_fleet_cell,
    run_memcheck,
)
from repro.scale.fleet import MEMCHECK_BUDGET_MB, MEMCHECK_CELL

#: small-but-real fleet: 4 hosts x 1 NI x 4 frames at 8:1 overcommit
TINY = dict(hosts=4, nis_per_host=1, endpoint_frames=4, ratio=8, ticks=48)


@pytest.mark.parametrize("policy", DEFAULT_FLEET_POLICIES)
def test_fleet_cell_is_deterministic_per_policy(policy):
    cfg = FleetCellConfig(policy=policy, **TINY)
    a = run_fleet_cell(cfg)
    b = run_fleet_cell(cfg)
    assert a.completed > 0, "tiny fleet made no progress"
    assert a.digest == b.digest
    assert (a.completed, a.remaps, a.evictions, a.tick_goodput_min) == \
           (b.completed, b.remaps, b.evictions, b.tick_goodput_min)


def test_different_seeds_diverge():
    a = run_fleet_cell(FleetCellConfig(seed=1, **TINY))
    b = run_fleet_cell(FleetCellConfig(seed=2, **TINY))
    assert a.digest != b.digest


@pytest.mark.parametrize("arrival", sorted(ARRIVAL_MODELS))
def test_never_zero_goodput_across_arrival_models(arrival):
    """Graceful degradation at the fleet's worst moment: after warmup,
    no single tick may serve zero messages, whatever the arrival shape.
    The floor leans on per-host phase spreading (a bursty fleet keeps a
    quarter of its hosts on-duty at any instant), so this needs fleet
    shape — 16 hosts — not the 4-host micro cell."""
    res = run_fleet_cell(FleetCellConfig(
        arrival=arrival, hosts=16, nis_per_host=1,
        endpoint_frames=4, ratio=16, ticks=48))
    assert res.completed > 0
    assert res.tick_goodput_min > 0, (
        f"{arrival}: fleet collapsed to zero goodput in some tick"
    )


def test_overcommit_pressure_shows_up_as_remap_work():
    lo = run_fleet_cell(FleetCellConfig(policy="lru", **{
        **TINY, "ratio": 1}))
    hi = run_fleet_cell(FleetCellConfig(policy="lru", **{
        **TINY, "ratio": 32}))
    assert lo.evictions == 0  # 1:1 never competes for frames
    assert hi.evictions > 0
    assert hi.remap_backlog_peak > lo.remap_backlog_peak
    assert hi.goodput_msgs_s <= lo.goodput_msgs_s


def test_sweep_grid_digest_and_json():
    doc = run_bench(
        "fleet", policies=["random", "lru"], ratios=[4, 16], hosts_list=[4],
        nis_per_host=1, frames=4, ticks=48, memcheck=False,
        smoke=True,  # every cell twice; the explicit matrix wins
    )
    assert list(doc["cells"]) == ["random@4h/4:1", "random@4h/16:1",
                                  "lru@4h/4:1", "lru@4h/16:1"]
    assert doc["failures"] == []  # deterministic, no zero-goodput cell
    assert validate(doc) == []


def test_memcheck_cell_is_the_acceptance_shape():
    cfg = FleetCellConfig(**MEMCHECK_CELL)
    assert cfg.total_endpoints >= 100_000
    assert cfg.hosts >= 64


def test_memory_budget_at_acceptance_cell():
    """The acceptance gate itself: 10^5 endpoints across 64 hosts,
    tracemalloc peak under the documented budget (short run — table
    build dominates the peak, not tick count)."""
    res = run_memcheck(ticks=6)
    assert res.total_endpoints >= 100_000
    assert res.tracemalloc_peak_bytes > 0
    assert res.tracemalloc_peak_bytes < MEMCHECK_BUDGET_MB * 1e6


def test_unknown_policy_and_arrival_raise():
    with pytest.raises(ValueError, match="replacement policy"):
        run_fleet_cell(FleetCellConfig(policy="nope", **TINY))
    with pytest.raises(ValueError, match="arrival"):
        run_fleet_cell(FleetCellConfig(arrival="nope", **TINY))


# ------------------------------------------------------- arrival models
def test_uniform_arrival_is_flat():
    m = ARRIVAL_MODELS["uniform"]()
    assert {m.intensity(t, 0.3) for t in range(10)} == {1.0}


def test_diurnal_arrival_has_trough_and_peak():
    m = ARRIVAL_MODELS["diurnal"]()
    vals = [m.intensity(t, 0.0) for t in range(m.period_ticks)]
    assert max(vals) == pytest.approx(1.0, abs=0.01)
    assert min(vals) == pytest.approx(m.trough, abs=0.01)
    # phase shifts the curve: two hosts half a period apart anti-align
    t_peak = vals.index(max(vals))
    shifted = m.intensity(t_peak, 0.5)
    assert shifted < 0.5 * max(vals)


def test_bursty_arrival_duty_cycle():
    m = ARRIVAL_MODELS["bursty"]()
    vals = [m.intensity(t, 0.0) for t in range(m.period_ticks)]
    on = sum(1 for v in vals if v == 1.0)
    assert on == round(m.period_ticks * m.duty)
    assert all(v == m.idle for v in vals if v != 1.0)
