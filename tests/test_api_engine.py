"""The engine facade: resolution, Session threading, bench registry.

``repro.api`` is the stable surface; these tests pin the contract —
every harness reaches its kernel through
:func:`resolve_engine`/:func:`resolve_kernel`, a Session accepts any
engine spec, :func:`run_bench` fronts every harness suite under one
name, and the ``python -m repro bench`` CLI dispatches.
"""

import json
import warnings

import pytest

from repro.api import (ENGINE_NAMES, AmError, ClusterConfig, Engine,
                       EngineError, ReferenceEngine, Session,
                       SequentialEngine, ShardedEngine, describe,
                       resolve_engine, run_bench)
from repro.api.engine import resolve_kernel
from repro.sim import ReferenceSimulator, Simulator


# ------------------------------------------------------------- resolution
def test_resolve_engine_by_name_and_passthrough():
    assert isinstance(resolve_engine("sequential"), SequentialEngine)
    assert isinstance(resolve_engine("reference"), ReferenceEngine)
    eng = ShardedEngine(num_shards=4)
    assert resolve_engine(eng) is eng
    assert resolve_kernel("reference") is ReferenceSimulator


def test_resolve_engine_none_consults_config():
    assert isinstance(resolve_engine(None), SequentialEngine)
    cfg = ClusterConfig(engine="reference")
    assert isinstance(resolve_engine(None, cfg), ReferenceEngine)


def test_resolve_engine_sharded_picks_up_config_knobs():
    cfg = ClusterConfig(num_hosts=8, num_shards=2,
                        shard_trunk_latency_us=30.0)
    eng = resolve_engine("sharded", cfg)
    assert (eng.num_shards, eng.trunk_latency_us) == (2, 30.0)


def test_resolve_engine_rejects_unknowns():
    with pytest.raises(EngineError, match="unknown engine"):
        resolve_engine("quantum")
    with pytest.raises(EngineError, match="not an engine spec"):
        resolve_engine(42)


def test_sharded_engine_kernel_factory_degenerates_at_one_shard():
    assert ShardedEngine(num_shards=1).kernel_factory() is Simulator
    with pytest.raises(EngineError, match="not shard-partitionable"):
        ShardedEngine(num_shards=4).kernel_factory()


def test_sharded_engine_simulator_builds_runner():
    eng = ShardedEngine(num_shards=2)
    ss = eng.simulator(ClusterConfig(num_hosts=8), scenario="uniform",
                       params={"waves": 2})
    res = ss.run("sequential")
    assert res.events > 0 and res.num_shards == 2


# --------------------------------------------------------------- sessions
def test_session_engine_matrix():
    with Session(nodes=[0, 1], num_hosts=4) as s:
        assert s.engine.name == "sequential"
        assert type(s.sim) is Simulator
    with Session(nodes=[0, 1], num_hosts=4, engine="reference") as s:
        assert s.engine.name == "reference"
        assert type(s.sim) is ReferenceSimulator
    # sharded at num_shards == 1 is honest: the plain kernel
    with Session(nodes=[0, 1], num_hosts=4, engine="sharded") as s:
        assert s.engine.name == "sharded"
        assert type(s.sim) is Simulator


def test_session_rejects_multi_shard_monolithic_build():
    with pytest.raises(EngineError, match="monolithic"):
        Session(nodes=[0, 1], num_hosts=8, num_shards=2, engine="sharded")


def test_session_engine_via_config_field():
    with Session(nodes=[0, 1], num_hosts=4,
                 cfg=ClusterConfig(num_hosts=4, engine="reference")) as s:
        assert s.engine.name == "reference"


# ---------------------------------------------------------- bench registry
def test_describe_lists_the_surface():
    d = describe()
    assert d["engines"] == list(ENGINE_NAMES)
    assert d["benches"] == ["calib", "chaos", "collectives", "fleet", "perf",
                            "scale", "shard_scaling", "tenant"]
    assert "lru" in d["replacement_policies"]


def test_run_bench_unknown_name_raises():
    with pytest.raises(AmError, match="unknown bench"):
        run_bench("nope")


def test_run_bench_shard_scaling_smoke():
    doc = run_bench("shard_scaling", engine="sharded", shard_counts=(1, 2),
                    quick=True)
    assert list(doc["cells"]) == ["uniform@1", "uniform@2"]
    assert doc["failures"] == []
    assert doc["cells"]["uniform@2"]["observables"]["parallelism_events"] > 1
    with pytest.raises(EngineError, match="only runs on the sharded"):
        run_bench("shard_scaling", engine="reference")


def test_session_run_bench_uses_session_engine():
    with Session(nodes=[0, 1], num_hosts=4, engine="sharded") as s:
        doc = s.run_bench("shard_scaling", shard_counts=(1,), quick=True)
    assert list(doc["cells"]) == ["uniform@1"] and doc["failures"] == []


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
    out = tmp_path / "shard.json"
    assert main(["bench", "shard_scaling", "--smoke", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "shard_scaling" and doc["failures"] == []
    assert len(doc["cells"]) == 6
