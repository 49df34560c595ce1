"""One harness for every benchmark suite.

A suite declares *what* to measure; this module owns *how*: the cell
loop, the determinism gate, the failure collector and the BENCH file
format.  A suite is

* ``cells(engine=None, **params)`` — an ordered list of ``(key, thunk)``
  pairs.  A thunk runs one cell and returns ``{"observables": ...,
  "measured": ...}``.  Only ``observables`` is digested, so wall-clock
  figures (``measured``) never enter a digest.  A thunk may read what an
  earlier thunk of the same list left in a shared closure (a fit over
  every sweep cell, a storm judged against its calm baseline);
* ``smoke`` — the parameter overrides of the reduced CI matrix;
* ``gates`` — predicates over the finished cells returning failure
  strings (an empty list passes).

Every suite writes the same document (``schema: 2``)::

    {"schema", "env": {python, nproc, platform}, "suite",
     "cells": {key: {"observables", "measured", "digest"}},
     "gates": {gate: ok}, "failures": [...], "digest"}

Observables are normalized through JSON before digesting, so every
digest in a committed file can be recomputed from the file alone
(:func:`validate`).

Run any suite with::

    PYTHONPATH=src python -m repro bench <suite> [--smoke] [--out PATH]

``--smoke`` runs the suite's reduced matrix with every cell executed
twice (digests must match) and writes a file only when ``--out`` is
given; a full run without ``--out`` rewrites the committed file,
``BENCH_<SUITE>.json``.  The exit status is 1 when anything failed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

__all__ = ["SCHEMA", "Suite", "register", "suites", "digest", "run",
           "validate", "cli"]

SCHEMA = 2

#: modules whose import registers the in-tree suites
_SUITE_MODULES = ("bench.collectives", "bench.chaos",
                  "calib.sweep", "scale.sweep", "scale.fleet", "tenant.bench")

_REGISTRY: dict[str, "Suite"] = {}


def digest(*parts) -> str:
    """The canonical digest: SHA-256 over ``repr(part)`` for each part.

    Reprs are concatenated without separators, so pass structured values
    (tuples, dicts) rather than runs of bare scalars when boundaries
    matter.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Suite:
    name: str
    cells: Callable[..., list]
    smoke: dict = field(default_factory=dict)
    gates: Sequence[Callable[[dict], list]] = ()

    @property
    def path(self) -> str:
        """The committed BENCH file, relative to the repository root."""
        return f"BENCH_{self.name.upper()}.json"


def register(suite: Suite) -> Suite:
    _REGISTRY[suite.name] = suite
    return suite


def suites() -> dict[str, Suite]:
    """Every registered suite by name (importing the in-tree ones)."""
    for mod in _SUITE_MODULES:
        importlib.import_module(f"repro.{mod}")
    return _REGISTRY


def _env() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def _normalized(value):
    return json.loads(json.dumps(value))


def run(name: str, *, engine=None, smoke: bool = False, progress=None,
        **params) -> dict:
    """Run suite ``name`` and return its BENCH document.

    ``smoke`` applies the suite's reduced matrix (explicit ``params``
    still win) and runs every cell twice, failing any whose observables
    digest differs.  A thunk that raises fails its cell and the run goes
    on.
    """
    suite = suites()[name]
    params = {**(suite.smoke if smoke else {}), **params}
    cells: dict[str, dict] = {}
    failures: list[str] = []
    for key, thunk in suite.cells(engine=engine, **params):
        try:
            out = thunk()
            obs = _normalized(out["observables"])
            d = digest(key, obs)
            if smoke:
                again = digest(key, _normalized(thunk()["observables"]))
                if again != d:
                    failures.append(f"{key}: nondeterministic: digest "
                                    f"{d[:12]} then {again[:12]}")
        except Exception as exc:  # noqa: BLE001 — collected, not hidden
            traceback.print_exc()
            failures.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        cells[key] = {"observables": obs,
                      "measured": _normalized(out.get("measured", {})),
                      "digest": d}
        if progress is not None:
            progress(f"  {key:<40} {d[:12]}")
    gates = {}
    for gate in suite.gates:
        found = gate(cells)
        gates[gate.__name__.lstrip("_")] = not found
        failures += found
    return {"schema": SCHEMA, "env": _env(), "suite": name, "cells": cells,
            "gates": gates, "failures": failures,
            "digest": digest(*((k, c["digest"]) for k, c in cells.items()))}


def validate(doc: dict) -> list[str]:
    """Schema errors in a BENCH document (empty when it is well formed
    and every digest recomputes from its own observables)."""
    keys = {"schema", "env", "suite", "cells", "gates", "failures", "digest"}
    if set(doc) != keys:
        return [f"top-level keys {sorted(doc)} != {sorted(keys)}"]
    errors = []
    if doc["schema"] != SCHEMA:
        errors.append(f"schema {doc['schema']} != {SCHEMA}")
    if set(doc["env"]) != {"python", "nproc", "platform"}:
        errors.append(f"env keys {sorted(doc['env'])}")
    for key, cell in doc["cells"].items():
        if set(cell) != {"observables", "measured", "digest"}:
            errors.append(f"{key}: cell keys {sorted(cell)}")
        elif digest(key, cell["observables"]) != cell["digest"]:
            errors.append(f"{key}: digest does not match its observables")
    rollup = digest(*((k, c.get("digest")) for k, c in doc["cells"].items()))
    if rollup != doc["digest"]:
        errors.append("top-level digest does not match the cell digests")
    return errors


def cli(name: str, *, smoke: bool = False, out: Optional[str] = None) -> int:
    """``python -m repro bench``: run, gate, write."""
    suite = suites()[name]
    doc = run(name, smoke=smoke, progress=print)
    # A smoke matrix never replaces the committed full-matrix file.
    if out is None and not smoke:
        out = suite.path
    if out is not None:
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {out}")
    print(f"digest {doc['digest'][:16]}, {len(doc['cells'])} cells")
    for gate, ok in doc["gates"].items():
        print(f"  gate {gate}: {'ok' if ok else 'FAIL'}")
    if doc["failures"]:
        print(f"{len(doc['failures'])} failure(s):", file=sys.stderr)
        for line in doc["failures"]:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0
