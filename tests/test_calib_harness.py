"""The calibration harness: golden cell, determinism, and the round trip.

Three acceptance properties:

* a fixed-seed **golden cell** (leaf4 0-1 pingpong 16B) measures the
  host overheads exactly and the one-way latency on top of the
  configured surface to sub-nanosecond agreement;
* running the same cell (and the same smoke matrix) twice is
  **bit-identical** — same digests, same observables;
* the full smoke sweep's fitted constants **round-trip** against the
  configured cost model within the CI tolerance (±10%), and an absurd
  tolerance fails loudly.
"""

import pytest

from repro.api import run_bench
from repro.bench.harness import validate
from repro.calib.model import configured_model, round_trip
from repro.calib.sweep import CalibCell, default_cells, fit_cells, run_cell
from repro.cluster.config import ClusterConfig

GOLDEN = CalibCell("leaf4", (0, 1), "pingpong", 16, 12)


def test_golden_cell_matches_configured_model_exactly():
    res = run_cell(GOLDEN, seed=1999)
    model = configured_model(ClusterConfig(num_hosts=4))
    # host overheads are paid verbatim by request()/poll(): exact
    assert res.os_ns == model.os_ns
    assert res.or_ns == model.or_ns
    # the measured one-way mean sits on the configured latency surface
    # (integer-rounded event timestamps, hence the 1 ns slack)
    assert res.headline_ns == pytest.approx(model.L_ns(2, 16), abs=1.0)
    assert res.samples == GOLDEN.rounds


def test_golden_cell_double_run_is_bit_identical():
    a = run_cell(GOLDEN, seed=1999)
    b = run_cell(GOLDEN, seed=1999)
    assert a.digest == b.digest
    assert (a.sim_ns, a.events, a.headline_ns) == (b.sim_ns, b.events, b.headline_ns)


def test_flood_cell_measures_configured_gap():
    res = run_cell(CalibCell("leaf4", (0, 1), "flood", 16, 120), seed=1999)
    model = configured_model(ClusterConfig(num_hosts=4))
    assert res.headline_ns == pytest.approx(model.g_ns, rel=0.02)


def test_smoke_matrix_is_smaller_than_full():
    assert len(default_cells(True)) < len(default_cells(False))


@pytest.fixture(scope="module")
def smoke_doc():
    # one shared smoke sweep, every cell run twice — module-scoped
    # because the sweep is the slow part
    return run_bench("calib", smoke=True)


def test_smoke_round_trip_within_tolerance(smoke_doc):
    assert smoke_doc["failures"] == []
    assert smoke_doc["gates"] == {"round_trip": True}
    fit = smoke_doc["cells"]["fit"]["observables"]
    # every compared constant inside the CI gate's ±10%
    assert fit["comparisons"] and all(row["ok"] for row in fit["comparisons"])


def test_smoke_report_serializes(smoke_doc):
    assert validate(smoke_doc) == []
    labels = [c.label for c in default_cells(True)]
    assert list(smoke_doc["cells"]) == labels + ["fit"]
    fit = smoke_doc["cells"]["fit"]["observables"]
    assert fit["fitted"]["os_ns"] == fit["configured"]["os_ns"]


def test_round_trip_flags_divergence():
    # shrink the tolerance to something impossible: the comparison must
    # fail loudly, proving the gate actually bites
    fit, configured, _, _ = fit_cells([run_cell(c)
                                       for c in default_cells(True)])
    rows, failures = round_trip(fit, configured, [("golden", 2, 16)],
                                tolerance=0.0)
    assert failures, "zero tolerance must produce failures"
    assert any(not r["ok"] for r in rows)


def test_smoke_sweep_double_run_is_bit_identical(smoke_doc):
    # the --smoke CI gate's core property: every cell ran twice with
    # matching digests (a mismatch would be a failure), and a fresh
    # sweep reproduces every cell digest
    again = run_bench("calib", small=True)
    assert again["digest"] == smoke_doc["digest"]
    assert ([c["digest"] for c in again["cells"].values()]
            == [c["digest"] for c in smoke_doc["cells"].values()])
