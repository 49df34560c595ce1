"""``python -m repro bench <suite> [--smoke] [--out PATH]``.

One front door over every registered benchmark suite
(:mod:`repro.bench.harness`).  Suite parameters are not flags: call
``repro.api.run_bench(suite, **params)`` for a non-default matrix.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .bench.harness import cli, suites

    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    bench = sub.add_parser("bench", help="run one benchmark suite")
    bench.add_argument("suite", choices=sorted(suites()))
    bench.add_argument("--smoke", action="store_true",
                       help="reduced matrix, every cell run twice")
    bench.add_argument("--out", default=None,
                       help="output JSON (default: the suite's BENCH file; "
                            "none under --smoke)")
    args = ap.parse_args(sys.argv[1:] if argv is None else argv)
    return cli(args.suite, smoke=args.smoke, out=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
