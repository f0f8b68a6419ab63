"""Running a population: expand, execute, fold, report.

:func:`run_population` is the fleet counterpart of
:func:`repro.experiments.runner.sweep_results`: it expands a
:class:`~repro.population.spec.PopulationSpec` into per-client plans,
hands them to :func:`~repro.exec.executor.run_plans` (in this process
by default, process pool via ``jobs``), and folds the per-client
results into a :class:`PopulationResult` — overall and per-segment
:class:`~repro.population.aggregate.PopulationAggregate` rollups.

The determinism contract is inherited, not re-implemented: plans are
frozen, ``run_plans`` returns results in plan order regardless of
worker count, and the fold consumes them positionally.  A population manifest
(schema ``repro.population/1``) therefore compares byte-identical
across ``jobs`` settings once wall-clock fields are stripped — that is
exactly what ``scripts/population_smoke.py`` gates in CI.  Checkpoint
resume also rides the existing machinery: per-client plans carry
distinct labels, so their fingerprints key a
:class:`~repro.exec.checkpoint.SweepCheckpoint` journal one client at
a time.  A ``batch`` spec skips the plans:
:func:`repro.batch.fleet.run_fleet` runs it in-process, same contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import check_jobs, run_plans
from repro.exec.run import ExperimentResult
from repro.obs.clock import perf_counter
from repro.obs.manifest import observer_blocks, write_manifest
from repro.population.aggregate import PopulationAggregate, fold_results
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
    result: PopulationResult, *, tracer=None, profile=None,
) -> Dict:
    """The manifest dict for one :class:`PopulationResult`.

    Embeds the full serialised spec and its hash (the fleet analogue of
    ``config_hash``), the overall and per-segment rollup snapshots, and
    optional trace/profile/monitor blocks — same conventions as
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
    manifest.update(observer_blocks(tracer, profile))
    return manifest


def finish_population(
    spec: PopulationSpec,
    results,
    *,
    started: float,
    tracer=None,
    manifest: Optional[str] = None,
    profile=None,
    keep_results: bool = False,
) -> PopulationResult:
    """Fold per-client results into a :class:`PopulationResult`.

    The one tail of :func:`run_population` and
    :func:`~repro.batch.fleet.run_fleet`: ``results`` holds one
    per-client result in plan order, folded by
    :func:`~repro.population.aggregate.fold_results`; ``manifest``
    then records the rollup.  Wall time counts from
    ``started``, a :func:`~repro.obs.clock.perf_counter` reading; an
    enabled ``profile`` times the fold as its ``aggregate`` phase.
    """
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("aggregate")
    overall, per_segment = fold_results(results, spec.segment_ranges())
    population = PopulationResult(
        spec=spec,
        overall=overall,
        segments=per_segment,
        wall_seconds=perf_counter() - started,
        results=list(results) if keep_results else None,
    )
    if manifest is not None:
        population.manifest = build_population_manifest(
            population, tracer=tracer, profile=profile,
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

    Never exceeds one worker per ``_MIN_CLIENTS_PER_WORKER`` clients;
    degrades to serial when the fleet is too small to amortise process
    start-up.  :func:`~repro.exec.executor.run_plans` clamps the rest
    to the usable cores.
    """
    return max(1, min(jobs, num_plans // _MIN_CLIENTS_PER_WORKER))


def run_population(
    spec: PopulationSpec,
    *,
    jobs: int = 1,
    progress=None,
    checkpoint: Optional[SweepCheckpoint] = None,
    tracer=None,
    manifest: Optional[str] = None,
    keep_results: bool = False,
    profile=None,
) -> PopulationResult:
    """Simulate the fleet ``spec`` describes and return its rollup.

    All options are keyword-only.  ``jobs`` selects the worker count
    (at least 1); results are byte-identical at any count.  A ``batch``
    spec runs in-process on :func:`~repro.batch.fleet.run_fleet`, which
    serves every other option: ``jobs`` has no effect on it.
    ``progress(completed, total, result)``
    fires per client in plan order; ``checkpoint`` attaches a
    :class:`~repro.exec.checkpoint.SweepCheckpoint` journal so an
    interrupted fleet resumes client-by-client.  ``tracer`` observes
    the run, and a :class:`repro.obs.monitor.MonitorSuite` among its
    sinks checks every plan (an *enabled* tracer forces serial
    execution, as everywhere else); ``manifest`` names a JSON file
    that receives the population manifest.  ``keep_results=True``
    retains the per-client result list on the returned object.
    ``profile`` attaches a :class:`repro.obs.profile.Profiler`; an
    *enabled* one forces serial execution, like an enabled tracer.
    """
    check_jobs(jobs)
    if spec.engine == "batch":
        # Imported lazily: repro.batch.fleet imports this module.
        from repro.batch.fleet import run_fleet

        return run_fleet(
            spec, tracer=tracer, manifest=manifest,
            profile=profile, progress=progress,
            checkpoint=checkpoint, keep_results=keep_results,
        )
    started = perf_counter()
    plans = expand(spec)
    results = run_plans(
        plans, jobs=_effective_jobs(jobs, len(plans)), tracer=tracer,
        progress=progress, checkpoint=checkpoint, profile=profile,
    )
    return finish_population(
        spec, results, started=started, tracer=tracer,
        manifest=manifest, profile=profile, keep_results=keep_results,
    )
