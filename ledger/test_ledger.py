"""Checks of the performance ledger itself; run with ``pytest ledger/``.

The smoke runs use ``run.py``'s ``--smoke`` size: one untraced and one
traced repetition of each workload, a few simulated milliseconds each
(``fig6_overcommit`` drains for ~45 ms while its late clients page in).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from sampler import LAYERS  # noqa: E402
from workloads import WORKLOADS, percentile, tail_percentile  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SIM_METRICS = [m["name"] for m in SPEC["end_to_end"] if m["name"].startswith("sim_")]


@pytest.fixture(scope="module")
def smoke():
    """Per workload: a smoke record with one untraced and one traced rep."""
    return {w: run.run_workload(w, seed=1, trace=True, smoke=True) for w in WORKLOADS}


def test_spec_names_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "ledger/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_emitted_with_its_unit(smoke, workload):
    record = smoke[workload]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(record, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        for m in SPEC[kind]:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_shares_sum_to_one(smoke, workload):
    record = smoke[workload]
    total = sum(record["per_layer"][f"{lay}.self_s"] for lay in LAYERS)
    assert total / record["trace"]["wall_s"] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_digest_equals_untraced(smoke, workload):
    record = smoke[workload]
    assert record["trace"]["reps"] == 1
    assert record["digests_agree"] and record["correct"]


def test_smoke_runs_repeat_and_seeds_differ():
    a, b = (run.run_workload("timeshare", seed=1, smoke=True) for _ in range(2))
    c = run.run_workload("timeshare", seed=2, smoke=True)
    assert a["correct"] and b["correct"] and c["correct"]
    assert a["digest"] == b["digest"] != c["digest"]
    assert {m: a["end_to_end"][m] for m in SIM_METRICS} == \
           {m: b["end_to_end"][m] for m in SIM_METRICS}


def test_missing_sources_exit_nonzero(tmp_path):
    """A checkout holding only the benchmark's files cannot run it."""
    (tmp_path / "ledger").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "ledger" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    p = subprocess.run([sys.executable, "ledger/run.py", "--workload", "timeshare"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile([7], 99) == 7
    assert percentile(range(16), 99) == 15  # 16 samples: p99 is the max


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(5000) == 99.0
    assert tail_percentile(500) == pytest.approx(98.0)
    assert tail_percentile(16) == pytest.approx(37.5)
    assert tail_percentile(10) == 0.0
    for n in (11, 40, 999, 1000):
        p = tail_percentile(n)
        assert n - n * p / 100 >= 10 - 1e-9


def test_compare_classifies_synthetic_results():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 1.1 for v in base]
    assert compare.classify(base, faster, "higher", 0.05) == "improved"
    assert compare.classify(base, faster, "lower", 0.05) == "worse"
    assert compare.classify(base, list(base), "higher", 0.05) == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.classify(base, noisy, "higher", 0.05) == "unresolved"
    # wide spread, but every change run beats every parent run
    assert compare.classify(noisy, [200.0 + v for v in noisy], "higher", 0.05) == "improved"
    # a gain smaller than the parent's own spread is not an improvement
    assert compare.classify(base, [v + 0.2 for v in base], "higher", 0.05) == "unchanged"


def _record(workload, seed, ops, failed=0, digest="d"):
    e2e = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    e2e["ops_per_s"] = ops
    return {"workload": workload, "seed": seed, "end_to_end": e2e,
            "attempted": 100, "failed": failed, "digest": digest}


def test_compare_claims_and_failures():
    parent = {"w": [_record("w", s, 100.0 + (s % 3) * 0.1) for s in range(10)]}
    change = {"w": [_record("w", s, 120.0 + (s % 3) * 0.1) for s in range(10)]}
    rows, ok = compare.compare(parent, change, ("ops_per_s", "w"))
    assert ok and rows[0][1]["ops_per_s"] == "improved"
    rows, ok = compare.compare(parent, {"w": change["w"][:5]}, ("ops_per_s", "w"))
    assert not ok  # too few pairs for a claim
    failing = {"w": [_record("w", s, 120.0, failed=1) for s in range(10)]}
    rows, ok = compare.compare(parent, failing)
    assert not ok and any("failed_frac rose" in n for n in rows[0][2])


def test_compare_requires_identical_simulation_per_seed():
    parent = {"w": [_record("w", s, 100.0) for s in range(10)]}
    rows, ok = compare.compare(parent, {"w": [_record("w", s, 100.0) for s in range(10)]})
    assert ok and all(rows[0][1][m] == "unchanged" for m in SIM_METRICS)
    # a simulated metric moved on one seed, far inside its bound
    moved = [_record("w", s, 100.0) for s in range(10)]
    moved[3]["end_to_end"]["sim_lat_us_p99"] *= 1.001
    rows, ok = compare.compare(parent, {"w": moved})
    assert not ok and rows[0][1]["sim_lat_us_p99"] == "changed"
    digest = [_record("w", s, 100.0, digest="e" if s == 7 else "d") for s in range(10)]
    rows, ok = compare.compare(parent, {"w": digest})
    assert not ok and any("digests differ on 1 pairs" in n for n in rows[0][2])
    shifted = [_record("w", s + 1, 100.0) for s in range(10)]
    rows, ok = compare.compare(parent, {"w": shifted})
    assert not ok and any("seeds differ" in n for n in rows[0][2])


def test_rep_count_depends_only_on_the_arguments():
    for cls in WORKLOADS.values():
        assert run.rep_count(cls, 0) == run.MIN_REPS
        assert run.rep_count(cls, SPEC["run_seconds"]) >= run.MIN_REPS
        assert run.rep_count(cls, 10 * cls.rep_s) == 10
