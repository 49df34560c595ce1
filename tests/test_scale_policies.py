"""repro.scale: per-policy determinism + replacement-policy regressions.

Two properties pin the overcommit harness down:

* **Determinism** — the same ``(policy, ratio, seed)`` cell produces a
  bit-identical result digest (and, with tracing on, a bit-identical
  event-timeline digest) on every run.  Everything downstream — the
  committed ``BENCH_SCALE.json``, the CI smoke gate, regression
  bisection — leans on this.
* **Policy quality** — ``active-preference`` exists because evicting an
  endpoint that is about to be used again is wasted re-mapping work
  (Section 6.4's thrash).  At 16:1 overcommit it must beat the paper's
  ``random`` choice on the scoreboard's thrash score.

Cells here are deliberately tiny; the committed BENCH_SCALE.json holds
the full-size sweep.
"""

import pytest

from repro.api import run_bench
from repro.bench.harness import validate
from repro.scale import (
    DEFAULT_POLICIES,
    DEFAULT_RATIOS,
    ScaleCellConfig,
    run_cell,
)

#: small-but-real cell: 2 frames, 4:1 overcommit, 8 clients
TINY = dict(ratio=4, endpoint_frames=2, client_nodes=2,
            duration_ms=10.0, warmup_ms=5.0)


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
def test_cell_is_deterministic_per_policy(policy):
    cfg = ScaleCellConfig(policy=policy, **TINY)
    a = run_cell(cfg, trace=True)
    b = run_cell(cfg, trace=True)
    assert a.completed > 0, "tiny cell made no progress"
    assert a.digest == b.digest
    assert a.timeline_digest and a.timeline_digest == b.timeline_digest
    assert (a.completed, a.remaps, a.evictions) == (b.completed, b.remaps, b.evictions)


def test_different_seeds_diverge():
    a = run_cell(ScaleCellConfig(seed=1, **TINY))
    b = run_cell(ScaleCellConfig(seed=2, **TINY))
    assert a.digest != b.digest


def test_active_preference_beats_random_on_thrash_at_16x():
    """Deprioritizing endpoints with queued work must reduce bounced
    evictions relative to the paper's random choice (Section 6.4)."""
    shape = dict(ratio=16, endpoint_frames=4, client_nodes=4,
                 duration_ms=60.0, warmup_ms=20.0)
    rnd = run_cell(ScaleCellConfig(policy="random", **shape))
    ap = run_cell(ScaleCellConfig(policy="active-preference", **shape))
    assert rnd.completed > 0 and ap.completed > 0
    assert rnd.remaps > 0 and ap.remaps > 0
    assert ap.thrash_score < rnd.thrash_score, (
        f"active-preference thrash {ap.thrash_score:.3f} not better than "
        f"random {rnd.thrash_score:.3f}"
    )
    assert ap.bounced_evictions < rnd.bounced_evictions


def test_sweep_grid_and_digest():
    doc = run_bench(
        "scale", policies=["random", "lru"], ratios=[1, 4],
        frames=2, duration_ms=8.0, warmup_ms=4.0, client_nodes=2,
        smoke=True,  # every cell twice; the explicit matrix wins
    )
    assert list(doc["cells"]) == ["random@1:1", "random@4:1",
                                  "lru@1:1", "lru@4:1"]
    assert doc["failures"] == []  # deterministic, no zero-goodput cell
    assert doc["gates"] == {"zero_goodput": True}
    assert validate(doc) == []
    # at 1:1 nothing competes for frames: no evictions at all
    for policy in ("random", "lru"):
        assert doc["cells"][f"{policy}@1:1"]["observables"]["evictions"] == 0


def test_default_grid_covers_issue_matrix():
    assert DEFAULT_RATIOS[0] == 1 and DEFAULT_RATIOS[-1] == 64
    assert set(DEFAULT_POLICIES) == {"random", "lru", "clock", "active-preference"}


def test_cell_config_derives_cluster_config():
    ccfg = ScaleCellConfig(policy="clock", ratio=8, endpoint_frames=4,
                           client_nodes=4)
    assert ccfg.nclients == 32
    cfg = ccfg.cluster_config()
    assert cfg.replacement_policy == "clock"
    assert cfg.endpoint_frames == 4
    assert cfg.num_hosts == 5  # 4 client nodes + the server
