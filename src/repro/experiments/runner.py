"""Experiment entry points: thin wrappers over the execution layer.

``run_experiment`` and ``sweep``/``sweep_results`` keep their original
signatures, but the work now flows through :mod:`repro.exec`: each
configuration becomes a frozen :class:`~repro.exec.plan.RunPlan`, and an
:class:`~repro.exec.executor.Executor` runs the plans — serially by
default, or on a process pool when ``jobs > 1``.  Executor choice is a
pure wall-clock optimisation: results are byte-identical regardless of
worker count (see ``docs/ARCHITECTURE.md`` for the contract).

Observability (see :mod:`repro.obs` and ``docs/OBSERVABILITY.md``):
``run_experiment`` accepts a ``tracer`` (structured event records), a
``metrics`` registry (named counters/gauges snapshotted per run), and a
``manifest`` path (a JSON document pinning config hash, seed, schedule
and metric snapshot).  ``sweep``/``sweep_results`` add an optional
progress callback and sweep-manifest aggregation so bench scripts can
emit machine-readable trajectories.  Under parallel execution the
progress callback still fires in plan order and metrics are folded into
the registry in plan order (after execution), so snapshots match the
serial run exactly.  All of it is pay-for-use: with everything left at
``None`` the run is byte-identical to an unobserved one.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Iterable, List, Optional

from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import Executor, resolve_executor
from repro.exec.plan import plan_for, plan_sweep
from repro.exec.run import (  # noqa: F401 - re-exported for compatibility
    ExperimentResult,
    _warmup_trace_allowance,
    execute_plan,
)
from repro.experiments.config import ExperimentConfig
from repro.obs.manifest import build_manifest, write_manifest, write_sweep_manifest
from repro.obs.profile import record_profile_metrics


def _merge_legacy_positionals(
    function_name: str,
    defaults: Dict[str, object],
    legacy: tuple,
    bound: Dict[str, object],
) -> Dict[str, object]:
    """One-release shim: map deprecated positional option values.

    The public entry points made their option arguments keyword-only in
    repro 1.1; this maps positional values onto the old parameter order,
    warns, and rejects values that were also passed by keyword.  The
    shim (and positional option passing with it) is removed in the next
    release.
    """
    names = list(defaults)
    if len(legacy) > len(names):
        raise TypeError(
            f"{function_name}() takes at most {len(names)} option "
            f"arguments ({len(legacy)} given)"
        )
    warnings.warn(
        f"passing {function_name}() options positionally is deprecated; "
        f"options ({', '.join(names[:len(legacy)])}) are keyword-only "
        "as of repro 1.1 and positional use will be removed in the next "
        "release",
        DeprecationWarning,
        stacklevel=3,
    )
    merged = dict(bound)
    for name, value in zip(names, legacy):
        if merged[name] is not defaults[name]:
            raise TypeError(
                f"{function_name}() got multiple values for argument "
                f"{name!r}"
            )
        merged[name] = value
    return merged


#: Old positional order of the entry points' options (shim bookkeeping).
_RUN_EXPERIMENT_DEFAULTS: Dict[str, object] = {
    "engine": "fast", "collect_responses": False, "tracer": None,
    "metrics": None, "manifest": None,
}


def run_experiment(
    config: ExperimentConfig,
    *legacy,
    engine: str = "fast",
    collect_responses: bool = False,
    tracer=None,
    metrics=None,
    manifest: Optional[str] = None,
    profile=None,
    monitors=None,
) -> ExperimentResult:
    """Run one fully-specified experiment and return its measurements.

    All options are keyword-only.  ``tracer`` attaches a
    :class:`repro.obs.trace.Tracer` to the engine (and, for the process
    engine, the kernel and channel) and wraps the cache in a
    :class:`~repro.cache.base.TracedCache`.  ``metrics`` fills a
    :class:`repro.obs.metrics.MetricsRegistry` with the run's headline
    counters and gauges.  ``manifest`` names a JSON file to write the
    run manifest to (also attached to the result).  ``profile`` attaches
    a :class:`repro.obs.profile.Profiler` (phase timings, engine
    counters, timing-tier attribution); ``monitors`` a
    :class:`repro.obs.monitor.MonitorSuite` checking the paper's
    invariants against the run's trace stream (strict mode raises
    :class:`~repro.errors.MonitorError`).  All default to off and leave
    the measured behaviour untouched.
    """
    if legacy:
        merged = _merge_legacy_positionals(
            "run_experiment", _RUN_EXPERIMENT_DEFAULTS, legacy,
            {"engine": engine, "collect_responses": collect_responses,
             "tracer": tracer, "metrics": metrics, "manifest": manifest},
        )
        engine = merged["engine"]
        collect_responses = merged["collect_responses"]
        tracer = merged["tracer"]
        metrics = merged["metrics"]
        manifest = merged["manifest"]
    plan = plan_for(config, engine=engine, collect_responses=collect_responses)
    result = execute_plan(plan, tracer=tracer, profile=profile,
                          monitors=monitors)
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    if metrics is not None:
        _record_metrics(metrics, result)
        if profiling:
            record_profile_metrics(metrics, profile)
    if manifest is not None:
        result.manifest = build_manifest(result, metrics=metrics,
                                         tracer=tracer, profile=profile,
                                         monitors=monitors)
        write_manifest(result.manifest, manifest)
    if profiling:
        profile.stop_phase("aggregate")
    return result


def _record_metrics(metrics, result: ExperimentResult) -> None:
    """Fold one run's headline measurements into a metrics registry."""
    counters = result.response_stats
    metrics.counter("requests.measured").inc(result.measured_requests)
    metrics.counter("requests.warmup").inc(result.warmup_requests)
    hits = round(result.hit_rate * result.measured_requests)
    metrics.counter("cache.hits").inc(hits)
    metrics.counter("cache.misses").inc(result.measured_requests - hits)
    metrics.gauge("response.mean").set(counters.mean)
    metrics.gauge("response.max").set(
        counters.maximum if counters.count else 0.0
    )
    metrics.gauge("schedule.period").set(float(result.schedule_period))
    metrics.gauge("schedule.utilisation").set(result.schedule_utilisation)
    if result.channel_utilisation is not None:
        metrics.counter("client.retunes").inc(result.retunes)
        for index, value in enumerate(result.channel_utilisation):
            metrics.gauge(f"schedule.utilisation.channel.{index}").set(value)
    metrics.counter("runs").inc()


#: Signature of the ``sweep`` progress callback:
#: ``progress(completed, total, result)`` after each configuration.
ProgressCallback = Callable[[int, int, ExperimentResult], None]


def _mean_response_metric(result: ExperimentResult) -> float:
    """Default ``sweep`` metric: the run's mean response time."""
    return result.mean_response_time


_SWEEP_DEFAULTS: Dict[str, object] = {
    "metric": _mean_response_metric, "engine": "fast", "progress": None,
    "manifest": None, "jobs": 1,
}


def sweep(
    configs: Iterable[ExperimentConfig],
    *legacy,
    metric: Callable[[ExperimentResult], float] = _mean_response_metric,
    engine: str = "fast",
    progress: Optional[ProgressCallback] = None,
    manifest: Optional[str] = None,
    jobs: int = 1,
) -> List[float]:
    """Run every configuration; return ``metric`` of each, in order."""
    if legacy:
        merged = _merge_legacy_positionals(
            "sweep", _SWEEP_DEFAULTS, legacy,
            {"metric": metric, "engine": engine, "progress": progress,
             "manifest": manifest, "jobs": jobs},
        )
        metric = merged["metric"]
        engine = merged["engine"]
        progress = merged["progress"]
        manifest = merged["manifest"]
        jobs = merged["jobs"]
    return [
        metric(result)
        for result in sweep_results(
            configs, engine=engine, progress=progress, manifest=manifest,
            jobs=jobs,
        )
    ]


_SWEEP_RESULTS_DEFAULTS: Dict[str, object] = {
    "engine": "fast", "progress": None, "manifest": None, "tracer": None,
    "metrics": None, "jobs": 1, "collect_responses": False,
    "executor": None, "checkpoint": None,
}


def sweep_results(
    configs: Iterable[ExperimentConfig],
    *legacy,
    engine: str = "fast",
    progress: Optional[ProgressCallback] = None,
    manifest: Optional[str] = None,
    tracer=None,
    metrics=None,
    jobs: int = 1,
    collect_responses: bool = False,
    executor: Optional[Executor] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    profile=None,
    monitors=None,
) -> List[ExperimentResult]:
    """Run every configuration; return the full results, in order.

    ``progress(completed, total, result)`` fires after each run, in
    plan order even under parallel execution; ``manifest`` names a JSON
    file that receives the aggregated sweep manifest (one per-run
    record per configuration — the ``BENCH_*.json``-style trajectory).
    ``tracer``/``metrics`` observe every run; an *enabled* tracer forces
    in-process serial execution so trace records stay in simulation
    order.  ``jobs`` selects the worker count (``executor`` overrides it
    with an explicit strategy), and ``checkpoint`` attaches a
    :class:`~repro.exec.checkpoint.SweepCheckpoint` journal so an
    interrupted sweep resumes without re-running finished points.

    Metrics are folded into the registry in plan order after execution —
    counters commute and gauges keep last-plan-wins semantics, so the
    final snapshot matches a serial in-run recording exactly.

    ``profile`` attaches a :class:`repro.obs.profile.Profiler` and
    ``monitors`` a :class:`repro.obs.monitor.MonitorSuite`; either being
    *enabled* forces in-process serial execution (like an enabled
    tracer), because both accumulate state a worker process could not
    ship back.  With a profiler attached the sweep manifest also embeds
    the executor's build-cache statistics (schedule reuse and
    timing-tier dispatch counts).
    """
    if legacy:
        merged = _merge_legacy_positionals(
            "sweep_results", _SWEEP_RESULTS_DEFAULTS, legacy,
            {"engine": engine, "progress": progress, "manifest": manifest,
             "tracer": tracer, "metrics": metrics, "jobs": jobs,
             "collect_responses": collect_responses, "executor": executor,
             "checkpoint": checkpoint},
        )
        engine = merged["engine"]
        progress = merged["progress"]
        manifest = merged["manifest"]
        tracer = merged["tracer"]
        metrics = merged["metrics"]
        jobs = merged["jobs"]
        collect_responses = merged["collect_responses"]
        executor = merged["executor"]
        checkpoint = merged["checkpoint"]
    plans = plan_sweep(
        list(configs), engine=engine, collect_responses=collect_responses
    )
    runner = executor if executor is not None else resolve_executor(jobs)
    results = runner.run(
        plans, tracer=tracer, progress=progress, checkpoint=checkpoint,
        profile=profile, monitors=monitors,
    )
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    if metrics is not None:
        for result in results:
            _record_metrics(metrics, result)
        if profiling:
            record_profile_metrics(metrics, profile)
    if manifest is not None:
        # Only a profiled sweep embeds the build cache: profiling forces
        # serial runs, and a pooled sweep keeps no cache to report, so
        # embedding it otherwise would make manifests differ by jobs.
        builds = getattr(runner, "last_builds", None) if profiling else None
        write_sweep_manifest(
            results, manifest, metrics=metrics, tracer=tracer,
            profile=profile, monitors=monitors,
            build_cache=None if builds is None else builds.timing_stats(),
        )
    if profiling:
        profile.stop_phase("aggregate")
    return results
