"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper
at full scale (ServerDBSize 5000, ``num_requests`` 15,000) and prints
the same rows/series the paper plots, so the qualitative comparison —
who wins, by what factor, where crossovers fall — is readable directly
from the bench output.

Scale control: set ``REPRO_BENCH_REQUESTS`` to reduce the measured
request count (e.g. 2000 for a quick pass); the default is the paper's
15,000.  ``REPRO_BENCH_SEED`` overrides the seed.
``REPRO_BENCH_JOBS`` sets the worker-process count per sweep (default
1 = serial); results are byte-identical at any count.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Make `pytest benchmarks/` work from the repo root without an
# installed package or a PYTHONPATH=src prefix (src-layout bootstrap).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.experiments.reporting import ascii_chart, format_table


def bench_requests(default: int = 15_000) -> int:
    """Measured request count for this bench run (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_REQUESTS", default))


def bench_seed() -> int:
    """Experiment seed for this bench run (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_SEED", 42))


def bench_jobs() -> int:
    """Worker processes per sweep for this bench run (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", 1))


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with exactly one timed execution.

    Figure reproductions are full parameter sweeps; running them the
    default multiple-round protocol would multiply minutes of work for
    no statistical benefit.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_figure(data) -> None:
    """Emit a figure's table (and a sketch of its shape) to the output."""
    print()
    print(format_table(data))
    try:
        print(ascii_chart(data))
    except ValueError:
        pass  # non-numeric or degenerate series: the table suffices


@pytest.fixture
def paper_scale():
    """(num_requests, seed) honouring the env overrides."""
    return bench_requests(), bench_seed()


@pytest.fixture
def jobs():
    """Worker-process count honouring ``REPRO_BENCH_JOBS``."""
    return bench_jobs()
