"""The one bench harness (``repro.bench.harness``).

Every suite runs through the same cell loop, determinism gate, failure
collector and BENCH schema; these tests pin each piece on
fake suites, and check that every registered suite's committed BENCH
file is well formed.
"""

import itertools
import json
import pathlib

import pytest

from repro.__main__ import main
from repro.bench import harness
from repro.bench.harness import Suite, digest, run, suites, validate

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def fake(monkeypatch):
    """Register a throwaway suite for one test."""

    def install(cells, **kw):
        suite = Suite("fake", lambda engine=None, **params: cells(**params),
                      **kw)
        monkeypatch.setitem(harness._REGISTRY, "fake", suite)
        return suite

    return install


# ------------------------------------------------------------------ digest
def test_digest_is_stable_and_order_sensitive():
    assert digest(("a", 1), [2, 3]) == digest(("a", 1), [2, 3])
    assert digest(("a", 1), [2, 3]) != digest([2, 3], ("a", 1))
    assert digest({"x": 1}) != digest({"x": 2})
    # pinned: SHA-256 over the concatenated reprs — a committed-file format
    assert digest("cell", {"x": 1}) == (
        "34bfdfecdb5de610c0ad8e189c91577a54f661d615020bf9f366608ae7668a72")


# --------------------------------------------------------- determinism gate
def test_double_run_gate_fails_a_drifting_observable(fake):
    counter = itertools.count()
    fake(lambda: [("drift", lambda: {"observables": {"n": next(counter)}})])
    doc = run("fake", smoke=True)
    assert len(doc["failures"]) == 1
    assert "drift: nondeterministic" in doc["failures"][0]


def test_double_run_gate_ignores_measured_wall(fake):
    walls = itertools.count(1)
    fake(lambda: [("steady", lambda: {"observables": {"n": 7},
                                      "measured": {"wall_s": next(walls)}})])
    doc = run("fake", smoke=True)
    assert doc["failures"] == []
    again = run("fake")
    assert again["cells"]["steady"]["digest"] == doc["cells"]["steady"]["digest"]
    assert again["cells"]["steady"]["measured"] != doc["cells"]["steady"]["measured"]


def test_raising_cell_is_collected_and_the_run_goes_on(fake):
    def boom():
        raise RuntimeError("oracle diverged")

    fake(lambda: [("bad", boom), ("good", lambda: {"observables": {}})])
    doc = run("fake")
    assert list(doc["cells"]) == ["good"]
    assert doc["failures"] == ["bad: RuntimeError: oracle diverged"]


def test_gates_and_smoke_params(fake):
    def cells(size=100):
        return [(f"c{size}", lambda: {"observables": {"size": size}})]

    def small(cells):
        return [f"{k}: too small" for k, c in cells.items()
                if c["observables"]["size"] < 10]

    fake(cells, smoke={"size": 3}, gates=(small,))
    assert run("fake")["gates"] == {"small": True}
    doc = run("fake", smoke=True)
    assert doc["gates"] == {"small": False}
    assert doc["failures"] == ["c3: too small"]
    assert validate(doc) == []


def test_cli_exits_nonzero_on_a_nondeterministic_suite(fake, tmp_path, capsys):
    counter = itertools.count()
    fake(lambda: [("drift", lambda: {"observables": {"n": next(counter)}})])
    out = tmp_path / "fake.json"
    assert main(["bench", "fake", "--smoke", "--out", str(out)]) == 1
    assert "nondeterministic" in capsys.readouterr().err
    assert json.loads(out.read_text())["failures"]
    assert main(["bench", "fake", "--out", str(out)]) == 0


def test_smoke_without_out_leaves_the_committed_file_alone(fake, tmp_path,
                                                           monkeypatch):
    def cells(size=100):
        return [(f"c{size}", lambda: {"observables": {"size": size},
                                      "measured": {"r": 2.0}})]

    fake(cells, smoke={"size": 3})
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "fake"]) == 0  # writes BENCH_FAKE.json
    committed = (tmp_path / "BENCH_FAKE.json").read_bytes()
    assert main(["bench", "fake", "--smoke"]) == 0
    assert (tmp_path / "BENCH_FAKE.json").read_bytes() == committed
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_FAKE.json"]


# ------------------------------------------------------- committed files
@pytest.mark.parametrize("name", sorted(suites()))
def test_committed_bench_file_validates(name):
    doc = json.loads((ROOT / suites()[name].path).read_text())
    assert validate(doc) == []
    assert doc["suite"] == name
    assert doc["failures"] == [] and all(doc["gates"].values())


def test_committed_bench_files_validate():
    # every file on disk, not only the registered suites': an orphan or a
    # hand-edited file fails here before anyone reads numbers from it
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert {p.name for p in paths} == {s.path for s in suites().values()}
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2, path.name
        assert validate(doc) == [], path.name
