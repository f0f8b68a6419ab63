"""Experiment entry points: thin wrappers over the execution layer.

``run_experiment`` and ``sweep_results`` take their options
keyword-only, and the work flows through :mod:`repro.exec`: each
configuration becomes a frozen :class:`~repro.exec.plan.RunPlan`, and
:func:`~repro.exec.executor.run_plans` runs the plans — in this process
by default, or on a process pool when ``jobs > 1``.  The worker count
is a pure wall-clock optimisation: results are byte-identical
regardless of it (see ``docs/ARCHITECTURE.md`` for the contract).

Observability (see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``):
``run_experiment`` accepts a ``tracer`` (structured event records) and
a ``manifest`` path (a JSON document pinning config hash, seed,
schedule and the run's measurements).  ``sweep_results`` adds an
optional progress callback and sweep-manifest aggregation so bench
scripts can emit machine-readable trajectories.  Under parallel
execution the progress callback still fires in plan order and the
sweep manifest lists the runs in plan order, so it matches the serial
run exactly.  All of it is pay-for-use: with everything left at
``None`` the run is byte-identical to an unobserved one.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import ProgressCallback, run_plans
from repro.exec.plan import RunPlan, plan_sweep
from repro.exec.run import (  # noqa: F401 - re-exported for compatibility
    ExperimentResult,
    _warmup_trace_allowance,
    execute_plan,
)
from repro.experiments.config import ExperimentConfig
from repro.obs.manifest import (
    build_manifest,
    build_sweep_manifest,
    write_manifest,
)


def run_experiment(
    config: ExperimentConfig,
    *,
    engine: str = "fast",
    collect_responses: bool = False,
    tracer=None,
    manifest: Optional[str] = None,
    profile=None,
) -> ExperimentResult:
    """Run one fully-specified experiment and return its measurements.

    All options are keyword-only.  ``tracer`` attaches a
    :class:`repro.obs.trace.Tracer` to the engine (and, for the process
    engine, the kernel and channel), whose loop emits the ``client.*``
    and ``cache.*`` records; a
    :class:`repro.obs.monitor.MonitorSuite` among its sinks checks the
    paper's invariants against the run's trace stream (strict mode
    raises :class:`~repro.errors.MonitorError`).  ``manifest`` names a
    JSON file to write the run manifest to (also attached to the
    result).  ``profile`` attaches a :class:`repro.obs.profile.Profiler`
    (phase timings and engine counters).  All default to off and leave
    the measured behaviour untouched.
    """
    plan = RunPlan(config, engine=engine,
                   collect_responses=collect_responses)
    result = execute_plan(plan, tracer=tracer, profile=profile)
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    if manifest is not None:
        result.manifest = build_manifest(result, tracer=tracer,
                                         profile=profile)
        write_manifest(result.manifest, manifest)
    if profiling:
        profile.stop_phase("aggregate")
    return result


def sweep_results(
    configs: Iterable[ExperimentConfig],
    *,
    engine: str = "fast",
    progress: Optional[ProgressCallback] = None,
    manifest: Optional[str] = None,
    tracer=None,
    jobs: int = 1,
    collect_responses: bool = False,
    checkpoint: Optional[SweepCheckpoint] = None,
    profile=None,
) -> List[ExperimentResult]:
    """Run every configuration; return the full results, in order.

    ``progress(completed, total, result)`` fires after each run, in
    plan order even under parallel execution; ``manifest`` names a JSON
    file that receives the aggregated sweep manifest (one per-run
    record per configuration — the ``BENCH_*.json``-style trajectory).
    ``tracer`` observes every run, and a
    :class:`repro.obs.monitor.MonitorSuite` among its sinks checks each
    one; an *enabled* tracer forces in-process serial execution so
    trace records stay in simulation order.  ``jobs`` selects the
    worker count (at least 1), and ``checkpoint`` attaches a
    :class:`~repro.exec.checkpoint.SweepCheckpoint` journal so an
    interrupted sweep resumes without re-running finished points.

    ``profile`` attaches a :class:`repro.obs.profile.Profiler`; an
    *enabled* one forces in-process serial execution (like an enabled
    tracer), because it accumulates state a worker process could not
    ship back.
    """
    plans = plan_sweep(
        list(configs), engine=engine, collect_responses=collect_responses
    )
    results = run_plans(
        plans, jobs=jobs, tracer=tracer, progress=progress,
        checkpoint=checkpoint, profile=profile,
    )
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    if manifest is not None:
        write_manifest(
            build_sweep_manifest(results, tracer=tracer, profile=profile),
            manifest,
        )
    if profiling:
        profile.stop_phase("aggregate")
    return results
