#!/bin/sh
# Pre-commit gate for the broadcast-disks reproduction.
#
# Runs the simulation-correctness linter and the tier-1 test suite —
# the same two checks CI runs — so a commit that would fail CI never
# leaves the machine.
#
# Install as a git hook:
#     ln -s ../../scripts/pre-commit.sh .git/hooks/pre-commit
# or run ad hoc:
#     scripts/pre-commit.sh
set -eu

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

echo "== repro.lint (static analysis) =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.lint \
    src tests scripts benchmarks

echo "== tier-1 tests =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "pre-commit checks passed"
