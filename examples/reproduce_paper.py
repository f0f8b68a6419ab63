#!/usr/bin/env python3
"""Regenerate the paper's full evaluation from the command line.

Runs any subset of the tables/figures of Acharya et al. (SIGMOD '95) and
prints the series as aligned tables; optionally writes CSVs for external
plotting.  This is the same machinery the ``benchmarks/`` harness uses,
packaged for interactive use.

Examples::

    python examples/reproduce_paper.py --list
    python examples/reproduce_paper.py table1 fig5
    python examples/reproduce_paper.py fig13 --requests 2000 --csv-dir out/
    python examples/reproduce_paper.py all --requests 1000   # quick pass
"""

import argparse
import os
import sys

from repro.experiments.reporting import format_table, write_csv

#: The artifact registry lives in the library's CLI module so the bench
#: harness, `python -m repro figures`, and this script all agree.
from repro.experiments.cli import ARTIFACTS

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Reproduce tables/figures of the Broadcast Disks paper."
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help=f"which artifacts to run ({', '.join(ARTIFACTS)}, or 'all')",
    )
    parser.add_argument("--list", action="store_true", help="list artifacts")
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="num_requests per design point (default: paper's 15000)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--csv-dir", default=None, help="also write one CSV per artifact here"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per sweep (results identical at any count)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.list or not args.artifacts:
        print("available artifacts:")
        for name, (fn, _scalable, _parallel) in ARTIFACTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<8} {doc}")
        return 0

    names = list(ARTIFACTS) if args.artifacts == ["all"] else args.artifacts
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)

    for name in names:
        fn, scalable, parallel = ARTIFACTS[name]
        kwargs = {}
        if scalable:
            kwargs["seed"] = args.seed
            if args.requests is not None:
                kwargs["num_requests"] = args.requests
        if parallel:
            kwargs["jobs"] = args.jobs
        data = fn(**kwargs)
        print(format_table(data))
        if args.csv_dir:
            path = os.path.join(args.csv_dir, f"{name}.csv")
            write_csv(data, path)
            print(f"wrote {path}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
