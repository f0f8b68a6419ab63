"""Running a population: expand, execute, fold, report.

:func:`run_population` is the fleet counterpart of
:func:`repro.experiments.runner.sweep_results`: it expands a
:class:`~repro.population.spec.PopulationSpec` into per-client plans,
hands them to an executor (serial by default, process pool via
``jobs``), and folds the per-client results into a
:class:`PopulationResult` — overall and per-segment
:class:`~repro.population.aggregate.PopulationAggregate` rollups.

The determinism contract is inherited, not re-implemented: plans are
frozen, the executor returns results in plan order regardless of worker
count, and the fold consumes them positionally.  A population manifest
(schema ``repro.population/1``) therefore compares byte-identical
across ``jobs`` settings once wall-clock fields are stripped — that is
exactly what ``scripts/population_smoke.py`` gates in CI.  Checkpoint
resume also rides the existing machinery: per-client plans carry
distinct labels, so their fingerprints key a
:class:`~repro.exec.checkpoint.SweepCheckpoint` journal one client at
a time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import Executor, resolve_executor, usable_cores
from repro.exec.run import ExperimentResult
from repro.obs.clock import perf_counter
from repro.obs.manifest import write_manifest
from repro.population.aggregate import (
    DEFAULT_GAMMA,
    PopulationAggregate,
    fold_results,
)
from repro.population.spec import PopulationSpec, expand, spec_to_dict

#: Schema tag of the population manifest document.
POPULATION_SCHEMA = "repro.population/1"


@dataclass
class PopulationResult:
    """Everything a population run produced, rolled up."""

    spec: PopulationSpec
    overall: PopulationAggregate
    segments: Dict[str, PopulationAggregate]
    wall_seconds: float
    #: The population manifest dict, present when ``run_population`` was
    #: asked to write one (``manifest=...``).
    manifest: Optional[Dict] = None
    #: Per-client results, kept only on request (``keep_results=True``;
    #: a large fleet's result list dwarfs the rollup).
    results: Optional[List[ExperimentResult]] = field(
        default=None, repr=False
    )

    @property
    def num_clients(self) -> int:
        """Clients simulated (== the spec's client count)."""
        return self.overall.clients

    def summary(self) -> str:
        """One-line human-readable fleet result."""
        stats = self.overall.response_means
        return (
            f"{self.spec.name}: {self.num_clients} clients, "
            f"response mean={stats.mean:.1f} bu "
            f"(p99={self.overall.percentiles.quantile(0.99):.1f}), "
            f"fairness={self.overall.fairness.jain:.3f}"
        )


def build_population_manifest(
    result: PopulationResult, *, metrics=None, tracer=None,
    profile=None, monitors=None,
) -> Dict:
    """The manifest dict for one :class:`PopulationResult`.

    Embeds the full serialised spec and its hash (the fleet analogue of
    ``config_hash``), the overall and per-segment rollup snapshots, and
    optional metrics/trace/profile/monitor blocks — same conventions as
    :func:`repro.obs.manifest.build_manifest`.
    """
    spec_payload = spec_to_dict(result.spec)
    spec_json = json.dumps(spec_payload, sort_keys=True, default=str)
    manifest: Dict = {
        "schema": POPULATION_SCHEMA,
        "name": result.spec.name,
        "spec": spec_payload,
        "spec_hash": hashlib.sha256(spec_json.encode("utf-8")).hexdigest(),
        "engine": result.spec.engine,
        "seed": result.spec.seed,
        "num_clients": result.num_clients,
        "summary": result.overall.snapshot(),
        "segments": {
            name: aggregate.snapshot()
            for name, aggregate in result.segments.items()
        },
        "total_wall_seconds": result.wall_seconds,
    }
    if metrics is not None:
        manifest["metrics"] = metrics.snapshot()
    if tracer is not None:
        manifest["trace"] = {
            "enabled": tracer.enabled,
            "records_emitted": tracer.emitted,
        }
    if profile is not None:
        manifest["profile"] = profile.snapshot()
    if monitors is not None:
        manifest["monitors"] = monitors.snapshot()
    return manifest


def _record_population_metrics(metrics, result: PopulationResult) -> None:
    """Fold the fleet rollup into a metrics registry."""
    overall = result.overall
    metrics.counter("population.clients").inc(overall.clients)
    metrics.counter("population.requests.measured").inc(
        overall.measured_requests
    )
    metrics.counter("population.requests.warmup").inc(
        overall.warmup_requests
    )
    metrics.gauge("population.response.mean").set(
        overall.response_means.mean
    )
    metrics.gauge("population.response.p99").set(
        overall.percentiles.quantile(0.99)
    )
    metrics.gauge("population.fairness").set(overall.fairness.jain)
    metrics.gauge("population.hit_rate").set(overall.hit_rate)
    metrics.counter("population.runs").inc()


def finish_population(
    spec: PopulationSpec,
    results,
    *,
    started: float,
    gamma: float = DEFAULT_GAMMA,
    tracer=None,
    metrics=None,
    manifest: Optional[str] = None,
    profile=None,
    monitors=None,
    keep_results: bool = False,
) -> PopulationResult:
    """Fold per-client results into a :class:`PopulationResult`.

    The one tail of :func:`run_population` and
    :func:`~repro.batch.fleet.run_fleet`: ``results`` holds one
    per-client result in plan order, folded by
    :func:`~repro.population.aggregate.fold_results`; ``metrics`` and
    ``manifest`` then record the rollup.  Wall time counts from
    ``started``, a :func:`~repro.obs.clock.perf_counter` reading; an
    enabled ``profile`` times the fold as its ``aggregate`` phase.
    """
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    overall, per_segment = fold_results(
        results, spec.segment_ranges(), gamma
    )
    population = PopulationResult(
        spec=spec,
        overall=overall,
        segments=per_segment,
        wall_seconds=perf_counter() - started,
        results=list(results) if keep_results else None,
    )
    if metrics is not None:
        _record_population_metrics(metrics, population)
    if manifest is not None:
        population.manifest = build_population_manifest(
            population, metrics=metrics, tracer=tracer,
            profile=profile, monitors=monitors,
        )
        write_manifest(population.manifest, manifest)
    if profiling:
        profile.stop_phase("aggregate")
    return population


#: Minimum clients per worker before a process pool pays for itself.
#: ``BENCH_population.json`` recorded the per-client path at 0.86x with
#: 4 workers over a 50-client fleet — fork/pickle overhead swamped the
#: ~70ms of simulation each worker received.  Below this density the
#: pool degrades toward serial instead.
_MIN_CLIENTS_PER_WORKER = 64


def _effective_jobs(jobs: int, num_plans: int) -> int:
    """Clamp the requested worker count to what the fleet can feed.

    Never exceeds the affinity-visible cores (see
    :func:`~repro.exec.executor.usable_cores`) nor one worker per
    ``_MIN_CLIENTS_PER_WORKER`` clients; degrades to serial when the
    fleet is too small to amortise process start-up.
    """
    if jobs is None or jobs <= 1:
        return 1
    return max(
        1,
        min(jobs, usable_cores(), num_plans // _MIN_CLIENTS_PER_WORKER),
    )


def run_population(
    spec: PopulationSpec,
    *,
    jobs: int = 1,
    executor: Optional[Executor] = None,
    progress=None,
    checkpoint: Optional[SweepCheckpoint] = None,
    tracer=None,
    metrics=None,
    manifest: Optional[str] = None,
    keep_results: bool = False,
    gamma: float = DEFAULT_GAMMA,
    profile=None,
    monitors=None,
) -> PopulationResult:
    """Simulate the fleet ``spec`` describes and return its rollup.

    All options are keyword-only.  ``jobs`` selects the worker count
    (``executor`` overrides it with an explicit strategy); results are
    byte-identical at any count.  ``progress(completed, total, result)``
    fires per client in plan order; ``checkpoint`` attaches a
    :class:`~repro.exec.checkpoint.SweepCheckpoint` journal so an
    interrupted fleet resumes client-by-client.  ``tracer`` and
    ``metrics`` observe the run (an *enabled* tracer forces serial
    execution, as everywhere else); ``manifest`` names a JSON file that
    receives the population manifest.  ``keep_results=True`` retains the
    per-client result list on the returned object; ``gamma`` tunes the
    percentile sketch's relative accuracy.  ``profile`` attaches a
    :class:`repro.obs.profile.Profiler` and ``monitors`` a
    :class:`repro.obs.monitor.MonitorSuite`; either being *enabled*
    forces serial execution, like an enabled tracer.
    """
    if (spec.engine == "batch" and executor is None and progress is None
            and checkpoint is None and not keep_results):
        # The batch engine executes whole homogeneous segments as
        # columnar groups — there are no per-client plans to schedule,
        # so the fleet path replaces the executor entirely.  Callers
        # needing plan-level machinery (progress, checkpoints, kept
        # per-client results, a custom executor) fall through to it:
        # single-client batch plans produce identical results.
        from repro.batch.fleet import run_fleet

        return run_fleet(
            spec, gamma=gamma, tracer=tracer, metrics=metrics,
            manifest=manifest, profile=profile, monitors=monitors,
        )
    started = perf_counter()
    plans = expand(spec)
    runner = (executor if executor is not None
              else resolve_executor(_effective_jobs(jobs, len(plans))))
    results = runner.run(
        plans, tracer=tracer, progress=progress, checkpoint=checkpoint,
        profile=profile, monitors=monitors,
    )
    return finish_population(
        spec, results, started=started, gamma=gamma, tracer=tracer,
        metrics=metrics, manifest=manifest, profile=profile,
        monitors=monitors, keep_results=keep_results,
    )
