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

A columnar bucket is one :func:`~repro.exec.run.run_columnar` call
with each client's ``derive_seed(spec.seed, index)`` seed, the entry a
one-client ``batch`` plan takes, and the engine arithmetic is
byte-identical to ``fast``.  So a column's result does not depend on
which clients share its bucket, and the fleet's rollup, folded by the
same :func:`~repro.population.run.finish_population` tail, *is* the
per-client fold modulo wall-clock fields.  Observers see the same path
a bare run takes, and every traced record carries its ``client``
label.  ``progress``, ``checkpoint`` and ``keep_results`` keep the
contract of :func:`~repro.exec.executor.run_plans` through its own
:class:`~repro.exec.executor.InOrderResults`; whole per-client results
are built only for them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.cache.batched import batchable_policy_name
from repro.exec.build import BuildCache
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import InOrderResults, ProgressCallback
from repro.exec.plan import RunPlan, derive_seed
from repro.exec.run import execute_plan, experiment_result, run_columnar
from repro.obs.clock import perf_counter
from repro.obs.trace import Tracer
from repro.population.run import PopulationResult, finish_population
from repro.population.spec import (
    PopulationSpec,
    client_config,
    client_groups,
)

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
    """Sink forwarding each record to ``tracer`` with a ``client`` label,
    and each run bracket as it is: a per-client plan emits unlabelled
    records, which a fleet trace interleaves with its columnar buckets'
    labelled ones, and its run is checked by the tracer's suites."""

    __slots__ = ("tracer", "label")

    def __init__(self, tracer: Tracer, label: str):
        self.tracer, self.label = tracer, label

    def write(self, record) -> None:
        self.tracer.emit(record.kind, record.time, **record.fields,
                         client=self.label)

    def begin_run(self, context) -> None:
        self.tracer.begin_run(context)

    def end_run(self) -> None:
        self.tracer.end_run()

    def close(self) -> None:
        """The caller closes the tracer forwarded to."""


# ---------------------------------------------------------------------------
# The fleet entry point
# ---------------------------------------------------------------------------

def run_fleet(
    spec: PopulationSpec,
    *,
    tracer=None,
    manifest: Optional[str] = None,
    profile=None,
    progress: Optional[ProgressCallback] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    keep_results: bool = False,
) -> PopulationResult:
    """Simulate ``spec`` through the batch engine and return its rollup.

    ``progress(completed, total, result)`` fires once per client, in
    client order.  ``checkpoint`` is consulted per client before its
    bucket runs (a journalled client leaves the bucket) and records each
    client after; its keys are the fingerprints of the
    :func:`~repro.population.spec.expand` plans, so a journal
    ``run_plans`` wrote resumes here.  ``keep_results=True`` keeps the
    per-client results, in client order.
    """
    started = perf_counter()
    tracing = tracer is not None and tracer.enabled
    # Whole per-client results only when an option hands them out.
    whole = progress is not None or checkpoint is not None or keep_results
    # Layouts and schedules, shared by every bucket and per-client plan
    # of this run that broadcasts the same program.
    builds = BuildCache()
    book = InOrderResults(spec.num_clients, progress, checkpoint)

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
                                    engine=spec.engine)
                    for client in clients
                }
            if checkpoint is not None:
                clients = [client for client in clients
                           if not book.resume(client, plans[client])]
            if not batched:
                for client in clients:
                    plan = plans[client]
                    book.complete(client, execute_plan(
                        replace(plan, engine="fast"), builds=builds,
                        tracer=(Tracer(_ClientLabel(tracer, plan.config.label))
                                if tracing else tracer),
                        profile=profile,
                    ), plan)
                continue
            if not clients:
                continue
            outcome, schedule, layout = run_columnar(
                config, [derive_seed(spec.seed, client) for client in clients],
                builds,
                labels=[f"{config.label}/client{client}" for client in clients],
                tracer=tracer, profile=profile,
            )
            for column, client in enumerate(clients):
                if not whole:
                    book.complete(client, _FleetClientStats(outcome, column))
                    continue
                plan = plans[client]
                book.complete(client, experiment_result(
                    plan.config, outcome.to_engine_outcome(column),
                    schedule, layout, wall_seconds=0.0,
                ), plan)

    return finish_population(
        spec, book.results, started=started, tracer=tracer,
        manifest=manifest, profile=profile, keep_results=keep_results,
    )
