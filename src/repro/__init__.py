"""Broadcast Disks: data management for asymmetric communication environments.

A complete reproduction of Acharya, Alonso, Franklin & Zdonik (SIGMOD
1995).  The library provides:

* **Broadcast program generation** (:mod:`repro.core`): the multi-disk
  interleaving algorithm of §2.2, plus flat/skewed/random comparison
  programs, closed-form delay analysis, and a broadcast-shaping
  optimiser.
* **Client cache management** (:mod:`repro.cache`): the paper's policy
  family — P, PIX, LRU, L, LIX — and the 2Q/LRU-K extension baselines.
* **Workload modelling** (:mod:`repro.workload`): Zipf-over-regions
  access, the Offset/Noise logical→physical mapping.
* **Two simulation engines** (:mod:`repro.experiments`,
  :mod:`repro.sim`): a fast analytic-stepping engine for full-scale
  parameter sweeps and a process-oriented discrete-event engine
  (CSIM substitute) supporting multiple clients and prefetching.
* **The paper's evaluation** (:mod:`repro.experiments.figures`): one
  callable per table and figure.

Quickstart::

    from repro import DiskLayout, ExperimentConfig, run_experiment

    config = ExperimentConfig(
        disk_sizes=(500, 2000, 2500),  # the paper's D5
        delta=3,
        cache_size=500,
        offset=500,
        noise=0.30,
        policy="LIX",
    )
    result = run_experiment(config)
    print(result.summary())
"""

from repro.cache import available_policies, make_policy
from repro.core import (
    BroadcastProgram,
    BroadcastSchedule,
    DiskLayout,
    ProgramSpec,
)
from repro.errors import (
    ConfigurationError,
    MonitorError,
    PolicyError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from repro.experiments import (
    DISK_PRESETS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    sweep_results,
)
from repro.experiments.simengine import run_clients
from repro.obs.monitor import MonitorSuite
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.population import (
    PopulationResult,
    PopulationSpec,
    SegmentSpec,
    run_population,
)
from repro.workload import LogicalPhysicalMapping, ZipfRegionDistribution

__version__ = "1.13.0"

__all__ = [
    "BroadcastProgram",
    "BroadcastSchedule",
    "ConfigurationError",
    "DISK_PRESETS",
    "DiskLayout",
    "ExperimentConfig",
    "ExperimentResult",
    "LogicalPhysicalMapping",
    "MonitorError",
    "MonitorSuite",
    "PolicyError",
    "PopulationResult",
    "PopulationSpec",
    "Profiler",
    "ProgramSpec",
    "ReproError",
    "ScheduleError",
    "SegmentSpec",
    "SimulationError",
    "Tracer",
    "ZipfRegionDistribution",
    "__version__",
    "available_policies",
    "make_policy",
    "run_clients",
    "run_experiment",
    "run_population",
    "sweep_results",
]
