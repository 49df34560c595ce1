"""Perf-regression harness checks (repro.bench.perf).

The hot-path overhaul (entry pool, timeout free-list, typed resume
dispatch, consumer batching) must be *invisible* except for speed: every
canonical scenario replayed on the pre-optimization reference kernel
must produce a bit-identical timeline digest and the same number of
dispatched kernel events.  These tests run the harness at quick scale on
both kernels and gate on:

* digest/end-state equality (the determinism contract), and
* the optimized kernel not being meaningfully slower than the reference
  one (the machine-independent form of the >20%-regression CI rule).
"""

import pytest

from repro.bench.perf import QUICK, SCENARIOS, TRACED, run_scenario


@pytest.fixture(scope="module")
def both_kernels():
    """Each scenario once per kernel, at quick scale, traced where possible."""
    out = {}
    for name in SCENARIOS:
        opt = run_scenario(name, "sequential", QUICK, traced=TRACED[name])
        ref = run_scenario(name, "reference", QUICK, traced=TRACED[name])
        out[name] = (opt, ref)
    return out


@pytest.mark.parametrize("name", SCENARIOS)
def test_digest_and_state_bit_identical(both_kernels, name, benchmark):
    """Optimized vs reference kernel: identical timelines and end state."""
    opt, ref = both_kernels[name]
    if TRACED[name]:
        assert opt["digest"] == ref["digest"], (
            f"{name}: timeline digest diverged between kernels")
    assert opt["checks"] == ref["checks"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(opt["checks"])


@pytest.mark.parametrize("name", SCENARIOS)
def test_event_counts_identical(both_kernels, name, benchmark):
    """Fast paths make events cheaper, never add or remove them."""
    opt, ref = both_kernels[name]
    assert opt["events"] == ref["events"], (
        f"{name}: {opt['events']} optimized vs {ref['events']} reference "
        "kernel events — a fast path changed the event structure")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(events=opt["events"])


def test_optimized_not_slower_than_reference(both_kernels, benchmark):
    """Aggregate events/s ratio across all scenarios must stay >= 0.8.

    Single quick-scale runs are noisy, so this gates on the aggregate
    (sum of events / sum of wall) rather than per-scenario ratios; the
    full per-scenario gate runs in CI via ``python -m repro bench perf
    --smoke --check``.
    """
    opt_ev = sum(both_kernels[n][0]["events"] for n in SCENARIOS)
    opt_wall = sum(both_kernels[n][0]["wall_s"] for n in SCENARIOS)
    ref_ev = sum(both_kernels[n][1]["events"] for n in SCENARIOS)
    ref_wall = sum(both_kernels[n][1]["wall_s"] for n in SCENARIOS)
    ratio = (opt_ev / opt_wall) / (ref_ev / ref_wall)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(speedup_vs_reference=ratio)
    assert ratio >= 0.8, (
        f"optimized kernel is >20% slower than the reference kernel "
        f"({ratio:.2f}x)")
