"""Performance ledger: time one paper workload end to end, by layer.

Usage (from the repository root)::

    python3 ledger/run.py --workload fig6_onevn [--seed N] [--seconds S]
                          [--trace 0|1] [--out results.jsonl] [--smoke]

``BENCHMARK.json``'s command is run with ``--workload``, ``--seed``,
``--seconds`` (its ``run_seconds``) and ``--trace``.  One invocation runs
one workload in this process:

1. one untimed warm-up repetition at a quarter of the size (not with
   ``--smoke``);
2. ``SETUP_BUILDS`` warm builds (cluster + virtual network + threads),
   whose median is ``setup_s``;
3. a fixed number of timed repetitions of the full workload, each on a
   fresh cluster with the global id counters rewound:
   ``round(seconds / rep_s)``, at least ``MIN_REPS``, where ``rep_s`` is
   the workload's repetition time on the reference host.  The count
   depends only on the arguments, never on how fast the repetitions
   ran, so a parent and a change take their estimates over the same
   number of samples.  Run + drain advance in slices of simulated time
   that are the same work in every repetition; ``ops_per_s`` charges
   each slice its quickest repetition, which keeps what contention the
   speed correction misses out of the result;
4. with ``--trace 1``, extra repetitions under the SIGPROF layer sampler
   (see ``sampler.py``) until it holds ``MIN_SAMPLES`` samples.

Every repetition's outputs are checked (each op completed exactly once,
nothing returned to sender, payloads intact) and digested; all digests
must agree with each other and with the pinned golden in
``ledger/goldens.json`` when one exists for the workload and seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics traced.
Host times are in reference seconds (see ``speed.py``).  The process
exits 1 when any check fails, and exits 1 before printing a result when
the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = HERE / "goldens.json"

MIN_REPS = 3
SETUP_BUILDS = 9
MIN_SAMPLES = 1000
MAX_TRACED_REPS = 6
#: simulated-length factors: the warm-up pass and the ``--smoke`` size
WARMUP_SCALE = 0.25
SMOKE_SCALE = 0.1


def environment(seed: int) -> dict:
    """Where a result came from, so machine drift stays visible."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        #: the host's speed now, against speed.REF_RATE
        "probe_rate": statistics.median(probe_rate() for _ in range(21)),
    }


def one_rep(cls, seed: int, scale: float, metered: bool = False, sampler=None):
    """Build, run, drain and verify one repetition; returns (outcome, spans).

    Spans are wall seconds per phase.  When ``metered``, run + drain also
    run under a :class:`SpeedMeter`, adding their reference seconds
    (``ref_s``), the reference seconds of each slice (``slices``) and
    their wall time without the meter's probes (``sim_wall_s``).
    """
    gc.collect()
    wl = cls(seed, scale)
    clock = time.perf_counter
    meter = SpeedMeter() if metered else nullcontext()
    tick = meter.checkpoint if metered else (lambda: None)
    spans = {}
    with sampler or nullcontext():
        t = clock()
        wl.setup()
        spans["setup"] = clock() - t
        with meter:
            t = clock()
            wl.run(tick)
            spans["run"] = clock() - t
            t = clock()
            wl.drain(tick)
            spans["drain"] = clock() - t
        t = clock()
        outcome = wl.verify()
        spans["verify"] = clock() - t
    if metered:
        spans["ref_s"] = meter.ref_s
        spans["slices"] = meter.slices
        spans["sim_wall_s"] = meter.wall_s
    return outcome, spans


def setup_times(cls, seed: int, scale: float, builds: int) -> list[float]:
    """Reference seconds of ``builds`` fresh builds."""
    out = []
    for _ in range(builds):
        gc.collect()
        wl = cls(seed, scale)
        with SpeedMeter() as meter:
            wl.setup()
        out.append(meter.ref_s)
    return out


def quickest_ref_s(reps) -> float:
    """Run + drain in reference seconds, each slice at its quickest rep."""
    return sum(min(column) for column in zip(*(sp["slices"] for _, sp in reps)))


def end_to_end(first, ref_s, setup, rss_mb) -> dict:
    lat_us = [x / 1_000 for x in first.lat_ns]
    window_s = first.window_ns / 1e9
    return {
        "ops_per_s": (first.attempted - first.failed) / ref_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "sim_ops_per_s": first.window_ops / window_s,
        "sim_goodput_mb_s": first.window_bytes / window_s / 1e6,
        "sim_lat_us_p50": percentile(lat_us, 50),
        "sim_lat_us_p99": percentile(lat_us, 99),
    }


def rep_count(cls, seconds: float) -> int:
    """Timed repetitions for ``seconds`` of measuring on the reference host."""
    return max(MIN_REPS, round(seconds / cls.rep_s))


def run_workload(name: str, seed: int = 1, seconds: float = SPEC["run_seconds"],
                 trace: bool = False, smoke: bool = False, pin: bool = False) -> dict:
    """Measure one workload; returns the full result record.  With ``pin``
    the run is to replace the golden, so the pinned one is not checked."""
    cls = WORKLOADS[name]
    scale = SMOKE_SCALE if smoke else 1.0
    if not smoke:
        one_rep(cls, seed, scale * WARMUP_SCALE)
    setup = setup_times(cls, seed, scale, 1 if smoke else SETUP_BUILDS)

    reps = [one_rep(cls, seed, scale, metered=True)
            for _ in range(1 if smoke else rep_count(cls, seconds))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced, sampler = [], None
    if trace:
        sampler = LayerSampler(ROOT)
        while not traced or (not smoke and sampler.samples < MIN_SAMPLES
                             and len(traced) < MAX_TRACED_REPS):
            traced.append(one_rep(cls, seed, scale, sampler=sampler))

    digests = {o.digest for o, _ in reps + traced}
    golden = None if smoke or pin else pinned_goldens().get(name, {}).get(str(seed))
    consistent = len(digests) == 1 and (golden is None or golden in digests)
    attempted = sum(o.attempted for o, _ in reps + traced)
    failed = attempted if not consistent else sum(o.failed for o, _ in reps + traced)

    first = reps[0][0]
    ref_s = quickest_ref_s(reps)
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "env": environment(seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "digest": first.digest,
        "golden": golden,
        "digests_agree": consistent,
        "reps": len(reps),
        "rep_spans": [sp for _, sp in reps],
        "lat_samples": len(first.lat_ns),
        "lat_tail_pct": tail_percentile(len(first.lat_ns)),
        "setup_builds": setup,
        "ops_per_wall_s": statistics.median(
            (o.attempted - o.failed) / sp["sim_wall_s"] for o, sp in reps),
        "end_to_end": end_to_end(first, ref_s, setup, rss_mb),
    }
    layer = dict(first.counts)
    layer["sim.ns_per_event"] = ref_s * 1e9 / max(1, layer["sim.events"])
    if trace:
        traced_wall = sum(sum(sp.values()) for _, sp in traced)
        traced_sim = statistics.median(sp["run"] + sp["drain"] for _, sp in traced)
        untraced_sim = statistics.median(sp["sim_wall_s"] for _, sp in reps)
        for lay, s in sampler.self_s.items():
            layer[f"{lay}.self_s"] = s
        layer["trace.samples"] = sampler.samples
        layer["trace.overhead"] = traced_sim / untraced_sim
        record["trace"] = {
            "reps": len(traced),
            "wall_s": traced_wall,
            "spans": [sp for _, sp in traced],
            "top": sampler.top(25),
        }
    record["per_layer"] = layer
    return record


def pinned_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def result_line(record: dict, trace: bool) -> dict:
    """The last line of standard output: every metric of one kind, with units."""
    kind = "per_layer" if trace else "end_to_end"
    values = record[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def write_trace(record: dict, path: Path) -> None:
    t = record["trace"]
    layer = record["per_layer"]
    lines = [f"# {record['workload']} seed {record['seed']}: {t['reps']} traced rep(s), "
             f"{t['wall_s']:.3f} s wall, {layer['trace.samples']} samples, "
             f"overhead x{layer['trace.overhead']:.3f}", "", "layer      self_s   share"]
    for lay in LAYERS:
        s = layer[f"{lay}.self_s"]
        lines.append(f"{lay:<9} {s:8.3f}  {s / t['wall_s']:6.1%}")
    lines += ["", "span      " + "  ".join(f"{k:>8}" for k in t["spans"][0])]
    for sp in t["spans"]:
        lines.append("          " + "  ".join(f"{v:8.3f}" for v in sp.values()))
    lines += ["", "samples  layer     function (innermost frame)"]
    lines += [f"{k:7d}  {lay:<9} {fn}" for lay, fn, k in t["top"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time on the reference host; sets the repetition "
                         f"count (default {SPEC['run_seconds']}; ignored with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the full record as one JSON line")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, no goldens")
    ap.add_argument("--pin", action="store_true",
                    help="store this run's digest as the workload's golden for --seed")
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                          args.pin)
    if args.pin and not args.smoke and record["failed"] == 0:
        goldens = pinned_goldens()
        goldens.setdefault(args.workload, {})[str(args.seed)] = record["digest"]
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    if args.trace:
        write_trace(record, HERE / "traces" / f"{args.workload}-seed{args.seed}.txt")
    if args.out:
        with args.out.open("a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    line = result_line(record, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"{args.workload:<16} {name:<28} {m['value']:>16.6g} {m['unit']}")
    if not record["digests_agree"]:
        print(f"digest mismatch: reps/traced/golden disagree (golden {record['golden']})",
              file=sys.stderr)
    print(json.dumps(line))
    return 0 if record["correct"] else 1


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: simulator sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from sampler import LAYERS, LayerSampler  # noqa: E402
from speed import SpeedMeter, probe_rate  # noqa: E402
from workloads import WORKLOADS, percentile, tail_percentile  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
