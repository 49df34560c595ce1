"""The datacenter chaos shapes (incast / fan-out / streaming).

Each shape must be a first-class citizen of the chaos gates:

* listed in the chaos workload registry, so a bare ``import
  repro.chaos`` knows all seven shapes without importing the
  calibration package;
* able to survive a generated fault schedule with the delivery-contract
  audit on;
* deterministic: the same (seed, scenario, workload) triple twice gives
  bit-identical chaos digests.

Mode equivalence (kernel, express path) is the chaos suite's job: its
matrix runs every shape through ``repro.chaos.run_modes``, and
``tests/test_chaos_determinism.py`` runs ``incast`` there in tier 1.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.chaos import ScheduleGenerator, run_chaos
from repro.chaos.invariants import percentile_ns
from repro.chaos.workloads import (FanoutWorkload, IncastWorkload,
                                   StreamingWorkload, make_workload)

SHAPES = ("incast", "rpc_fanout", "streaming")

#: reduced shape kwargs so the chaos matrix stays fast
KW = {
    "incast": {"senders": 3, "rounds": 3, "burst": 2},
    "rpc_fanout": {"workers": 3, "rounds": 4},
    "streaming": {"stages": 3, "messages": 8},
}


def _scenario(seed, family="mixed"):
    return ScheduleGenerator(
        seed, num_hosts=8, num_spines=2, num_procs=4, num_eps=4,
        duration_ns=12_000_000, profile="mild",
    ).generate(family)


def test_bare_chaos_import_registers_every_shape():
    # a fresh interpreter: nothing else in the test session may have
    # imported the calibration package or the shapes for us
    code = ("import json, sys, repro.chaos\n"
            "from repro.chaos.workloads import WORKLOADS\n"
            "print(json.dumps([sorted(WORKLOADS), 'repro.calib' in sys.modules]))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    names, calib_imported = json.loads(out)
    assert set(names) >= {"pairwise", "bulk", "client_server", "collective",
                          "incast", "rpc_fanout", "streaming"}
    assert not calib_imported


def test_make_workload_builds_each_shape():
    assert isinstance(make_workload("incast", senders=2, rounds=1),
                      IncastWorkload)
    assert isinstance(make_workload("rpc_fanout"), FanoutWorkload)
    assert isinstance(make_workload("streaming"), StreamingWorkload)
    with pytest.raises(ValueError, match="unknown workload"):
        make_workload("nope")


def test_streaming_needs_two_stages():
    with pytest.raises(ValueError):
        StreamingWorkload(stages=1)


@pytest.mark.parametrize("shape", SHAPES)
def test_shape_survives_chaos_with_contract_audit(shape):
    report = run_chaos(_scenario(11), shape, **KW[shape])
    assert report.ok, report.violations


@pytest.mark.parametrize("shape", SHAPES)
def test_shape_chaos_runs_are_bit_identical(shape):
    a = run_chaos(_scenario(23), shape, **KW[shape])
    b = run_chaos(_scenario(23), shape, **KW[shape])
    assert a.digest == b.digest
    assert (a.accepted, a.delivered, a.returned) == (
        b.accepted, b.delivered, b.returned)


def test_percentile_nearest_rank():
    vals = [10, 20, 30, 40]
    assert percentile_ns(vals, 50) == 20
    assert percentile_ns(vals, 99) == 40
    assert percentile_ns([], 50) == 0
