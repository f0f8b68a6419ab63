"""Experiment harness: configuration, engines, runner, figure definitions.

* :mod:`~repro.experiments.config` — :class:`ExperimentConfig`, the union
  of the paper's client (Table 2), server (Table 3), and study (Table 4)
  parameters, with the paper's defaults.
* :mod:`~repro.experiments.engine` — the fast analytic-stepping engine:
  exploits fixed inter-arrival times to jump straight to each page
  arrival (bisection into the schedule's occurrence lists).
* :mod:`~repro.experiments.simengine` — the process-oriented engine built
  on :mod:`repro.sim`; slower, but supports multiple clients and
  broadcast snooping (prefetch).  Cross-validated against the fast
  engine request-by-request.
* :mod:`~repro.experiments.runner` — builds all components from a config
  and runs one experiment or a sweep.
* :mod:`~repro.experiments.figures` — one entry point per paper table and
  figure, returning the exact series the paper plots.
* :mod:`~repro.experiments.reporting` — ascii tables/CSV for the bench
  harness.
"""

from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.experiments.engine import FastEngine
from repro.experiments.runner import (
    ExperimentResult,
    run_experiment,
    sweep_results,
)

__all__ = [
    "DISK_PRESETS",
    "ExperimentConfig",
    "ExperimentResult",
    "FastEngine",
    "run_experiment",
    "sweep_results",
]
