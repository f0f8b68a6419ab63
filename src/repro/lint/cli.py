"""Command line front end: ``python -m repro.lint [paths ...]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.lint.config import load_config
from repro.lint.diagnostics import format_diagnostics
from repro.lint.engine import lint_paths
from repro.lint.registry import available_rules

#: Exit-code contract (documented in --help and docs/LINTING.md).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

_EPILOG = """\
exit codes:
  0  no findings (the tree is clean)
  1  findings were reported
  2  usage error (unknown option, bad path, bad --format, bad config)

suppression:
  append `# repro: noqa[CODE]` to the offending line, or configure a
  per-rule allowlist in pyproject.toml [tool.reprolint.allow].
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Simulation-correctness static analysis for the broadcast-"
            "disks reproduction: rejects wall-clock reads, unmanaged "
            "RNGs, float-equality on simulated time, mutable defaults, "
            "swallowed exceptions, non-picklable plan fields, and "
            "positional option arguments."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PYPROJECT",
        help="explicit pyproject.toml carrying [tool.reprolint] "
        "(default: nearest pyproject.toml above the cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit 0",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the exit code per the 0/1/2 contract."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, name, rationale in available_rules():
            print(f"{code}  {name:<22} {rationale}")
        return EXIT_CLEAN

    if args.config is not None and not args.config.is_file():
        print(
            f"error: config file not found: {args.config}", file=sys.stderr
        )
        return EXIT_USAGE

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        config = load_config(pyproject=args.config)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    diagnostics = lint_paths(paths, config)
    output = format_diagnostics(diagnostics, args.format)
    if output:
        print(output)
    if diagnostics:
        if args.format == "text":
            print(
                f"\n{len(diagnostics)} finding"
                f"{'s' if len(diagnostics) != 1 else ''}",
                file=sys.stderr,
            )
        return EXIT_FINDINGS
    return EXIT_CLEAN
