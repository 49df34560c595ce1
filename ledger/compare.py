"""Summarize ledger results, or judge a change against its parent.

Usage::

    python3 ledger/compare.py RESULTS.jsonl
    python3 ledger/compare.py PARENT.jsonl CHANGE.jsonl [--claim METRIC:WORKLOAD]

Inputs are files of records appended by ``run.py --out``.  With one file
it prints, per workload and end-to-end metric, the median and quartiles
of the runs (the form ``ledger/baseline.json`` is committed in).

With two, the k-th parent record of a workload pairs with the k-th
change record of that workload, so the runs should alternate sides; a
pair must share its seed.  The simulated metrics (``sim_*``) and the
digest are deterministic for a seed, so in every pair they must be
bit-identical: a simulated metric is ``unchanged`` or ``changed``, and
the metric's bound in ``BENCHMARK.json`` (which covers the spread
across seeds) does not apply.  Each host (metric, workload) is

``worse``       the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  otherwise, but either side's quartile spread exceeds the
                bound and not every change run beats every parent run;
``improved``    the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the
                parent's quartile spread, or every change run beats every
                parent run;
``unchanged``   none of these.

A ``--claim`` is met only when its (metric, workload) is ``improved`` on
at least ten pairs.  The failure fraction (failed / attempted) must not
rise on any workload.  The exit status is 1 when a claim is not met, a
host metric is worse, a simulated metric or a digest changed, a pair's
seeds differ, or failures rose; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Records by workload, in file order."""
    out: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out[rec["workload"]].append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def classify(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Status of one (metric, workload); pairs are zipped in order."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if all_better:
        return "improved"
    if max(p3 - p1, c3 - c1) > bound * abs(pm):
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "improved"
    return "unchanged"


def failed_frac(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def summarize(results: dict[str, list[dict]]) -> dict:
    summary = {}
    for w, recs in results.items():
        env = {k: v for k, v in recs[0]["env"].items() if k not in ("seed", "probe_rate")}
        env["probe_rate_median"] = statistics.median(r["env"]["probe_rate"] for r in recs)
        summary[w] = {"runs": len(recs), "seeds": [r["seed"] for r in recs],
                      "failed_frac": failed_frac(recs), "env": env}
        for m in SPEC["end_to_end"]:
            q1, med, q3 = quartiles([r["end_to_end"][m["name"]] for r in recs])
            summary[w][m["name"]] = {"median": med, "iqr": q3 - q1, "unit": m["unit"]}
    return summary


def compare(parent: dict, change: dict, claim: tuple[str, str] | None = None):
    """Rows of (workload, {metric: status}, notes) and the overall verdict."""
    rows, ok = [], True
    for w in sorted(set(parent) | set(change)):
        ps, cs = parent.get(w, []), change.get(w, [])
        n = min(len(ps), len(cs))
        if n == 0:
            rows.append((w, {}, ["missing on one side"]))
            ok = False
            continue
        ps, cs = ps[:n], cs[:n]
        statuses, notes = {}, [f"{n} pairs"]
        for m in SPEC["end_to_end"]:
            name = m["name"]
            p = [r["end_to_end"][name] for r in ps]
            c = [r["end_to_end"][name] for r in cs]
            if name.startswith("sim_"):
                statuses[name] = "unchanged" if p == c else "changed"
            else:
                statuses[name] = classify(p, c, m["better"], m["bound"])
            ok &= statuses[name] not in ("worse", "changed")
        unpaired = sum(1 for p, c in zip(ps, cs) if p["seed"] != c["seed"])
        if unpaired:
            notes.append(f"seeds differ on {unpaired} pairs")
            ok = False
        moved = sum(1 for p, c in zip(ps, cs) if p["digest"] != c["digest"])
        if moved:
            notes.append(f"digests differ on {moved} pairs")
            ok = False
        if failed_frac(cs) > failed_frac(ps):
            notes.append(f"failed_frac rose {failed_frac(ps):.4g} -> {failed_frac(cs):.4g}")
            ok = False
        if claim and claim[1] == w:
            met = n >= MIN_PAIRS and statuses.get(claim[0]) == "improved"
            notes.append(f"claim {claim[0]}: {'met' if met else 'NOT met'}")
            ok &= met
        rows.append((w, statuses, notes))
    if claim and claim[1] not in parent:
        ok = False
    return rows, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--claim", help="METRIC:WORKLOAD the change claims to improve")
    args = ap.parse_args(argv)
    parent = load(args.parent)
    if args.change is None:
        print(json.dumps(summarize(parent), indent=2, sort_keys=True))
        return 0
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    rows, ok = compare(parent, load(args.change), claim)
    names = [m["name"] for m in SPEC["end_to_end"]]
    print("workload          " + " ".join(f"{n:>16}" for n in names))
    for w, statuses, notes in rows:
        print(f"{w:<17} " + " ".join(f"{statuses.get(n, '-'):>16}" for n in names)
              + "   " + "; ".join(notes))
    print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
