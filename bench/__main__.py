"""Command line: ``python -m bench run|compare``.

``run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]``
measures the workloads (all four by default) and prints every metric,
then one JSON line; it exits 1 when a correctness check fails and 2
when the library's sources are missing.  ``compare BASE NEW`` judges
two result documents written by ``run --out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from bench import compare, driver
from bench.workloads import PINNED_SEED, WORKLOADS


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="measure one workload (default: all four)")
    run.add_argument("--seed", type=int, default=PINNED_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="repeat rounds until this many seconds have passed "
                          f"(default: {driver.ROUNDS} rounds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="add one traced child per workload; the last line "
                          "then reports the per-layer metrics")
    run.add_argument("--out", type=pathlib.Path, help="write the result document here")
    cmp = sub.add_parser("compare", help="compare two result documents")
    cmp.add_argument("base")
    cmp.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare.main(args.base, args.new)
    if not (driver.ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {driver.ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        doc = driver.run_session(workloads, args.seed, seconds=args.seconds,
                                 trace=bool(args.trace))
    except driver.ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(driver.render(doc))
    print(json.dumps(driver.result_line(doc, trace=bool(args.trace))))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
