"""Shared helpers for the figure/table benchmarks.

Each benchmark file checks one of the paper's tables or figures against
the reproduction bands recorded in EXPERIMENTS.md, and times the
harness through pytest-benchmark (one round — these are simulations, not
microkernels; the interesting output is the simulated metrics, which each
test attaches to ``benchmark.extra_info``).

The figure checks read their inputs through the ``figure`` fixture:
the observables of one cell of the ``figures`` bench suite
(:mod:`repro.bench.figures`), the numbers ``BENCH_FIGURES.json``
commits.  A cell that several checks read runs once per session.
"""

import functools
import json
from types import SimpleNamespace

import pytest

from repro.bench.figures import FIGURES


@functools.lru_cache(maxsize=None)
def _observables(key):
    """The observables of the ``figures`` cell ``key``, as attributes.

    They pass through JSON as the BENCH file does, so a check reads
    exactly the committed values (tuples as lists, numbers unchanged).
    """
    thunk = dict(FIGURES.cells())[key]
    return SimpleNamespace(**json.loads(json.dumps(thunk()["observables"])))


@pytest.fixture
def figure():
    return _observables


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    result = {}

    def target():
        result["value"] = fn(*args, **kwargs)

    benchmark.pedantic(target, rounds=1, iterations=1)
    return result["value"]


@pytest.fixture
def once(benchmark):
    def _once(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _once
