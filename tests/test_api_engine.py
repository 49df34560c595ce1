"""The engine map: one switch, one Cluster, bench registry.

``repro.api`` is the stable surface; these tests pin the contract —
``ClusterConfig.engine`` is the only way to pick a kernel (a Cluster or
Session takes it as a config override), an unknown name fails in
``validate()``, there is one context-managed :class:`Cluster`,
:func:`run_bench` fronts every harness suite under one name, and the
``python -m repro bench`` CLI dispatches.
"""

import json
import warnings

import pytest

import repro
from repro.am import new_endpoint
from repro.api import (ENGINE_NAMES, AmError, Cluster, ClusterConfig,
                       Session, describe, resolve_kernel, run_bench)
from repro.nic.endpoint_state import Residency
from repro.sim import ReferenceSimulator, Simulator


# ------------------------------------------------------------- resolution
def test_resolve_kernel_by_name():
    assert ENGINE_NAMES == ("sequential", "reference")
    assert resolve_kernel("sequential") is Simulator
    assert resolve_kernel("reference") is ReferenceSimulator


def test_unknown_engine_fails_in_validate():
    for name in ("quantum", "sharded", 42, None):
        with pytest.raises(ValueError, match="unknown engine"):
            ClusterConfig(engine=name).validate()
        with pytest.raises(ValueError, match="unknown engine"):
            Cluster(ClusterConfig(num_hosts=4), engine=name)
        with pytest.raises(ValueError, match="unknown engine"):
            Session(nodes=[0, 1], num_hosts=4, engine=name)


# ------------------------------------------------------ clusters, sessions
def test_cluster_engine_override():
    assert type(Cluster(ClusterConfig(num_hosts=2)).sim) is Simulator
    cluster = Cluster(ClusterConfig(num_hosts=2), engine="reference")
    assert cluster.cfg.engine == "reference"
    assert type(cluster.sim) is ReferenceSimulator


def test_session_engine_matrix():
    with Session(nodes=[0, 1], num_hosts=4) as s:
        assert s.cfg.engine == "sequential"
        assert type(s.sim) is Simulator
    with Session(nodes=[0, 1], num_hosts=4, engine="reference") as s:
        assert s.cfg.engine == "reference"
        assert type(s.sim) is ReferenceSimulator


def test_session_engine_via_config_field():
    with Session(nodes=[0, 1], num_hosts=4,
                 cfg=ClusterConfig(num_hosts=4, engine="reference")) as s:
        assert s.cfg.engine == "reference"
        assert type(s.sim) is ReferenceSimulator


def test_one_cluster_class_tears_itself_down():
    assert Cluster is repro.Cluster
    with repro.Cluster(ClusterConfig(num_hosts=4)) as cluster:
        eps = [cluster.run_process(
            new_endpoint(cluster.node(n), rngs=cluster.rngs), f"e{n}")
            for n in (0, 1, 1)]
    assert all(ep.state.residency is Residency.FREED for ep in eps)
    assert all(node.driver.endpoints == {} for node in cluster.nodes)
    assert not any(cluster.network.attached(node.nic.nic_id)
                   for node in cluster.nodes)


# ---------------------------------------------------------- bench registry
def test_describe_lists_the_surface():
    d = describe()
    assert d["engines"] == list(ENGINE_NAMES)
    assert d["benches"] == ["calib", "chaos", "collectives", "figures",
                            "fleet", "scale", "tenant"]
    assert "lru" in d["replacement_policies"]


def test_run_bench_unknown_name_raises():
    with pytest.raises(AmError, match="unknown bench"):
        run_bench("nope")


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
