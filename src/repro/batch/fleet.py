"""Fleet execution: every ``engine="batch"`` population runs here.

:func:`run_fleet` is the batch engine's counterpart of
:func:`repro.population.run.run_population`, which sends it every
batch spec: same spec in, same
:class:`~repro.population.run.PopulationResult` out.  Each segment's
clients are bucketed by :func:`~repro.population.spec.client_groups`
(a segment of constants is one bucket; finite-support draws bucket by
equal draws).  A bucket whose policy has a columnar form runs as one
columnar engine run over a ``(steps, clients)`` trace matrix,
multi-channel programs included.  Every other client (a segment with
a :class:`Uniform` field, an unbatchable policy such as LRU-K) runs as
a per-client ``fast`` plan through :func:`~repro.exec.run.execute_plan`.

A columnar bucket draws each client's trace from its own
``RandomStreams(derive_seed(spec.seed, index))`` streams, those of its
per-client run, and the engine arithmetic is byte-identical to
``fast``.  So a column's result does not depend on which clients share
its bucket, and the fleet's rollup, folded by the same
:func:`~repro.population.run.finish_population` tail, *is* the
per-client fold modulo wall-clock fields.  Observers see the same path
a bare run takes, and every traced record carries its ``client``
label.  ``progress``, ``checkpoint`` and ``keep_results`` keep the
executors' contract; whole per-client results are built only for them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.batch.engine import batchable_policy_name, build_columnar_engine
from repro.exec.build import BuildCache
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import ProgressCallback
from repro.exec.plan import RunPlan, derive_seed
from repro.exec.run import (
    _warmup_trace_allowance,
    execute_plan,
    experiment_result,
    monitored_run,
    require_measured,
)
from repro.obs.clock import perf_counter
from repro.obs.trace import Tracer
from repro.population.aggregate import DEFAULT_GAMMA
from repro.population.run import PopulationResult, finish_population
from repro.population.spec import (
    PopulationSpec,
    client_config,
    client_groups,
)
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping

__all__ = ["run_fleet"]


class _FleetClientStats:
    """The slice of an ExperimentResult the population fold consumes."""

    __slots__ = (
        "mean_response_time", "measured_requests", "warmup_requests",
        "hit_rate", "wall_seconds",
    )

    def __init__(self, outcome, column: int):
        self.mean_response_time = float(outcome.mean[column])
        self.measured_requests = int(outcome.count[column])
        self.warmup_requests = int(outcome.warmup_seen[column])
        self.hit_rate = outcome.hit_rate(column)
        self.wall_seconds = 0.0


class _ClientLabel:
    """Sink forwarding each record to ``tracer`` with a ``client`` label:
    a per-client plan emits unlabelled records, which a fleet trace
    interleaves with its columnar buckets' labelled ones."""

    __slots__ = ("tracer", "label")

    def __init__(self, tracer: Tracer, label: str):
        self.tracer, self.label = tracer, label

    def write(self, record) -> None:
        self.tracer.emit(record.kind, record.time, **record.fields,
                         client=self.label)

    def close(self) -> None:
        """The caller closes the tracer forwarded to."""


# ---------------------------------------------------------------------------
# The exact columnar group path
# ---------------------------------------------------------------------------

def _client_stream(spec, index: int, name: str):
    """Client ``index``'s named stream, as its per-client run draws it."""
    return RandomStreams(derive_seed(spec.seed, index)).stream(name)


def _group_traces(spec, indices, config, total: int) -> np.ndarray:
    """Per-client trace columns, drawn from the per-client streams.

    Column ``c`` is byte-identical to the trace ``execute_plan`` would
    draw for client ``indices[c]``'s config — that is what makes the
    columnar path's results match ``run_population`` exactly.
    """
    pages = np.empty((total, len(indices)), dtype=np.int64)
    distribution = config.build_distribution()
    drift = config.build_drift(total) if config.drift_rotations else None
    for column, index in enumerate(indices):
        generator = _client_stream(spec, index, "requests")
        if drift is not None:
            pages[:, column] = drift.generate_trace(total, generator).pages
        else:
            pages[:, column] = distribution.sample(generator, total)
    return pages


def _group_physical(spec, indices, config, layout) -> np.ndarray:
    """Logical→physical rows: shared when noise-free, per-client else.

    Only the ``access_range`` columns a trace can request are kept.
    """
    access_range = config.access_range
    if config.noise <= 0.0:
        return config.build_mapping(layout).physical_array()[
            None, :access_range
        ]
    scope = None if config.noise_over_full_database else access_range
    physical = np.empty((len(indices), access_range), dtype=np.int64)
    for column, index in enumerate(indices):
        mapping = LogicalPhysicalMapping(
            layout=layout,
            offset=config.offset,
            noise=config.noise,
            rng=_client_stream(spec, index, "noise"),
            noise_scope=scope,
        )
        physical[column] = mapping.physical_array()[:access_range]
    return physical


def _run_group_columnar(
    spec, indices, config, builds, *, tracer=None, profile=None,
    monitors=None,
):
    """Run one bucket through the exact columnar engine: its outcome,
    and the schedule and layout it ran on."""
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("build")
    layout, schedule = builds.layout_and_schedule(config)
    engine = build_columnar_engine(
        config, schedule, layout,
        _group_physical(spec, indices, config, layout), len(indices),
    )
    total = config.num_requests + _warmup_trace_allowance(config)
    pages = _group_traces(spec, indices, config, total)

    with monitored_run(config, schedule, tracer=tracer,
                       monitors=monitors) as run_tracer:
        labels = None
        if run_tracer is not None and run_tracer.enabled:
            labels = [f"{config.label}/client{client}" for client in indices]
        if profiling:
            profile.stop_phase("build")
            profile.start_phase("run")
        try:
            outcome = engine.run(
                pages,
                warmup_requests=config.warmup_requests,
                extra_warmup=config.extra_warmup,
                tracer=run_tracer,
                profile=profile,
                client_labels=labels,
            )
        finally:
            if profiling:
                profile.stop_phase("run")
        if profiling:
            profile.count("requests.measured", int(outcome.count.sum()))
            profile.count("requests.warmup", int(outcome.warmup_seen.sum()))
    require_measured(config, bool(outcome.count.all()))
    return outcome, schedule, layout


# ---------------------------------------------------------------------------
# The fleet entry point
# ---------------------------------------------------------------------------

def run_fleet(
    spec: PopulationSpec,
    *,
    gamma: float = DEFAULT_GAMMA,
    tracer=None,
    manifest: Optional[str] = None,
    profile=None,
    monitors=None,
    progress: Optional[ProgressCallback] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    keep_results: bool = False,
) -> PopulationResult:
    """Simulate ``spec`` through the batch engine and return its rollup.

    ``progress(completed, total, result)`` fires once per client, in
    client order.  ``checkpoint`` is consulted per client before its
    bucket runs (a journalled client leaves the bucket) and records each
    client after; its keys are the fingerprints of the
    :func:`~repro.population.spec.expand` plans, so a journal an
    executor wrote resumes here.  ``keep_results=True`` keeps the
    per-client results, in client order.
    """
    started = perf_counter()
    tracing = tracer is not None and tracer.enabled
    # Whole per-client results only when an option hands them out.
    whole = progress is not None or checkpoint is not None or keep_results
    # Layouts and schedules, shared by every bucket and per-client plan
    # of this run that broadcasts the same program.
    builds = BuildCache()
    results: List[object] = [None] * spec.num_clients
    reported = 0

    def report(client: int, result, plan: Optional[RunPlan] = None):
        """Book one client's result, journal it under ``plan`` when it
        has just run, and report the completed prefix."""
        nonlocal reported
        results[client] = result
        if checkpoint is not None and plan is not None:
            checkpoint.record(plan, result)
        while (progress is not None and reported < len(results)
               and results[reported] is not None):
            progress(reported + 1, len(results), results[reported])
            reported += 1

    for segment, indices in spec.segment_ranges():
        buckets = client_groups(spec, segment, indices)
        for config, clients in buckets or [(None, indices)]:
            batched = (config is not None
                       and batchable_policy_name(config.policy))
            # Each client's expand() plan: its config and its journal key.
            plans: Dict[int, RunPlan] = {}
            if whole or not batched:
                plans = {
                    client: RunPlan(client_config(spec, segment, client),
                                    engine=spec.engine, index=client)
                    for client in clients
                }
            if checkpoint is not None:
                pending = []
                for client in clients:
                    journalled = checkpoint.lookup(plans[client])
                    if journalled is None:
                        pending.append(client)
                    else:
                        report(client, journalled)
                clients = pending
            if not batched:
                for client in clients:
                    plan = plans[client]
                    report(client, execute_plan(
                        replace(plan, engine="fast"), builds=builds,
                        tracer=(Tracer(_ClientLabel(tracer, plan.config.label))
                                if tracing else tracer),
                        profile=profile, monitors=monitors,
                    ), plan)
                continue
            if not clients:
                continue
            outcome, schedule, layout = _run_group_columnar(
                spec, clients, config, builds,
                tracer=tracer, profile=profile, monitors=monitors,
            )
            for column, client in enumerate(clients):
                if not whole:
                    results[client] = _FleetClientStats(outcome, column)
                    continue
                plan = plans[client]
                report(client, experiment_result(
                    plan.config, outcome.to_engine_outcome(column),
                    schedule, layout, wall_seconds=0.0,
                ), plan)

    return finish_population(
        spec, results, started=started, gamma=gamma, tracer=tracer,
        manifest=manifest, profile=profile, monitors=monitors,
        keep_results=keep_results,
    )
