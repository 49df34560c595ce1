"""The engine map: resolution, Session threading, bench registry.

``repro.api`` is the stable surface; these tests pin the contract —
every harness reaches its kernel through :func:`resolve_kernel`, a
Session accepts any engine name, :func:`run_bench` fronts every harness
suite under one name, and the ``python -m repro bench`` CLI dispatches.
"""

import json
import warnings

import pytest

from repro.api import (ENGINE_NAMES, AmError, ClusterConfig, EngineError,
                       Session, describe, resolve_kernel, run_bench)
from repro.sim import ReferenceSimulator, Simulator


# ------------------------------------------------------------- resolution
def test_resolve_kernel_by_name():
    assert ENGINE_NAMES == ("sequential", "reference")
    assert resolve_kernel("sequential") is Simulator
    assert resolve_kernel("reference") is ReferenceSimulator


def test_resolve_kernel_none_consults_config():
    assert resolve_kernel(None) is Simulator
    cfg = ClusterConfig(engine="reference")
    assert resolve_kernel(None, cfg) is ReferenceSimulator


def test_resolve_kernel_rejects_unknowns():
    for spec in ("quantum", "sharded", 42):
        with pytest.raises(EngineError, match="unknown engine"):
            resolve_kernel(spec)
    with pytest.raises(EngineError, match="unknown engine"):
        Session(nodes=[0, 1], num_hosts=4, engine="sharded")
    with pytest.raises(EngineError, match="unknown engine"):
        run_bench("chaos", engine="sharded")
    with pytest.raises(ValueError, match="unknown engine"):
        ClusterConfig(engine="sharded").validate()


# --------------------------------------------------------------- sessions
def test_session_engine_matrix():
    with Session(nodes=[0, 1], num_hosts=4) as s:
        assert s.engine == s.cluster.engine == "sequential"
        assert type(s.sim) is Simulator
    with Session(nodes=[0, 1], num_hosts=4, engine="reference") as s:
        assert s.engine == s.cluster.engine == "reference"
        assert type(s.sim) is ReferenceSimulator


def test_session_engine_via_config_field():
    with Session(nodes=[0, 1], num_hosts=4,
                 cfg=ClusterConfig(num_hosts=4, engine="reference")) as s:
        assert s.engine == "reference"


# ---------------------------------------------------------- bench registry
def test_describe_lists_the_surface():
    d = describe()
    assert d["engines"] == list(ENGINE_NAMES)
    assert d["benches"] == ["calib", "chaos", "collectives", "fleet", "scale",
                            "tenant"]
    assert "lru" in d["replacement_policies"]


def test_run_bench_unknown_name_raises():
    with pytest.raises(AmError, match="unknown bench"):
        run_bench("nope")


def test_session_run_bench_uses_session_engine(monkeypatch):
    from repro.bench import harness

    seen = {}
    monkeypatch.setattr(harness, "run",
                        lambda name, **kw: seen.update(name=name, **kw))
    with Session(nodes=[0, 1], num_hosts=4, engine="reference") as s:
        s.run_bench("chaos", seeds=(1,))
    assert seen == {"name": "chaos", "engine": "reference", "seeds": (1,)}


def test_new_paths_are_warning_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        describe()
        assert run_bench("calib", smoke=True)["failures"] == []
        with Session(nodes=[0, 1], num_hosts=4, engine="sequential"):
            pass


# ------------------------------------------------------------ umbrella CLI
def test_umbrella_cli_dispatch(capsys, tmp_path):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "python -m repro" in capsys.readouterr().out
    for argv in ([], ["frobnicate"], ["bench", "nope"],
                 ["bench", "scale", "--frames", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    out = tmp_path / "calib.json"
    assert main(["bench", "calib", "--smoke", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "calib" and doc["failures"] == []
    assert doc["cells"]
