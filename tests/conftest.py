"""Shared fixtures for the test suite.

Scales: unit tests use tiny hand-checkable layouts; integration tests use
a "mini" configuration (database of 500 pages, access range 100) that
preserves the paper's proportions — AccessRange = DB/5, RegionSize =
AccessRange/20, CacheSize = AccessRange/2 — while running in milliseconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make `python -m pytest` work from the repo root without an installed
# package or a PYTHONPATH=src prefix (src-layout bootstrap).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.experiments.config import ExperimentConfig
from repro.workload.zipf import ZipfRegionDistribution


@pytest.fixture
def rng():
    """A deterministic numpy generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_layout():
    """Three disks of 2/4/8 pages at speeds 4:2:1 (the Figure 3 shape)."""
    return DiskLayout((2, 4, 8), (4, 2, 1))


@pytest.fixture
def tiny_schedule(tiny_layout):
    """The multidisk program of the tiny layout."""
    return multidisk_program(tiny_layout)


@pytest.fixture
def mini_distribution():
    """Zipf over 100 pages in 10 regions, paper's theta."""
    return ZipfRegionDistribution(access_range=100, region_size=10, theta=0.95)


@pytest.fixture
def mini_config():
    """A 1/10th-scale analogue of the paper's D5 design point."""
    return ExperimentConfig(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        noise=0.30,
        offset=50,
        access_range=100,
        region_size=10,
        num_requests=600,
        seed=7,
    )


@pytest.fixture
def cut_mid_record():
    """Truncate a text file halfway through its middle line.

    Returns a function ``cut(path) -> line`` that leaves the lines
    before ``line`` whole and the first half of ``line`` (1-based) as
    the file's last, newline-less line — a writer killed mid-record.
    """
    def cut(path):
        with open(path) as handle:
            lines = handle.readlines()
        line = len(lines) // 2
        partial = lines[line - 1]
        with open(path, "w") as handle:
            handle.writelines(lines[: line - 1])
            handle.write(partial[: len(partial) // 2])
        return line

    return cut
