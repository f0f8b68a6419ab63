"""Executors: strategies for running a list of plans.

Both executors honour one contract, asserted by
``tests/test_exec_parallel.py``: the returned list matches the plan
list position-for-position, and every per-plan measurement (means,
samples, counters — everything except ``wall_seconds``) is identical
no matter which executor ran it, how many workers it used, or in what
order the workers finished.  Parallelism is therefore a pure wall-clock
optimisation, never an answer-changing one.

How :class:`ParallelExecutor` keeps the contract:

* each plan is self-contained (frozen config, no live objects), so
  shipping it to a worker process cannot entangle runs;
* results are reassembled by plan position, not completion order;
* the ``progress`` callback fires in plan order — a position is
  reported only once every earlier position has completed — so
  observers see exactly the serial sequence (:class:`InOrderResults`
  keeps both rules and the journal, for every executor and fleet);
* when an *enabled* tracer is attached, the pool is bypassed and plans
  run serially in-process: trace records must land in one sink in
  simulation order, which cannot be preserved across process
  boundaries.  (A disabled tracer costs nothing and parallelises
  fine.)

Both executors thread a :class:`~repro.exec.build.BuildCache` through
their runs — the serial executor one per ``run()`` call, the parallel
executor one per worker process — so sweep points sharing a broadcast
structure skip schedule construction, and consecutive points sharing a
mapping or trace skip drawing it.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.exec.build import BuildCache
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.plan import RunPlan
from repro.exec.run import ExperimentResult, execute_plan

#: ``progress(completed, total, result)``, fired in plan order.
ProgressCallback = Callable[[int, int, ExperimentResult], None]


def usable_cores() -> int:
    """CPU cores this process may actually run on.

    Respects CPU affinity masks (containers, ``taskset``) where the
    platform exposes them; falls back to :func:`os.cpu_count`.  Worker
    processes beyond this count time-share cores and — as
    ``BENCH_sweep.json`` recorded before the clamp — turn the pool into
    a pessimization, so :class:`ParallelExecutor` never exceeds it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


class Executor(Protocol):
    """Anything that can turn a plan list into a result list."""

    def run(
        self,
        plans: Sequence[RunPlan],
        *,
        tracer=None,
        progress: Optional[ProgressCallback] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        profile=None,
    ) -> List[ExperimentResult]:
        ...  # pragma: no cover - protocol signature


class InOrderResults:
    """Results of ``total`` plan positions, kept by position: ``progress``
    fires once per position in order, and each plan that runs is
    journalled once (a position resumed from the journal is not)."""

    def __init__(self, total: int,
                 progress: Optional[ProgressCallback] = None,
                 checkpoint: Optional[SweepCheckpoint] = None):
        self.results: List[Optional[ExperimentResult]] = [None] * total
        self._progress = progress
        self._checkpoint = checkpoint
        self._reported = 0

    def resume(self, position: int, plan: RunPlan) -> bool:
        """Complete ``position`` from the journal if it holds ``plan``."""
        if self._checkpoint is None:
            return False
        result = self._checkpoint.lookup(plan)
        if result is None:
            return False
        self.complete(position, result)
        return True

    def complete(self, position: int, result,
                 plan: Optional[RunPlan] = None) -> None:
        """Book ``position``'s result, journalled under ``plan`` when it
        has just run; report the completed prefix."""
        results = self.results
        results[position] = result
        if plan is not None and self._checkpoint is not None:
            self._checkpoint.record(plan, result)
        while (self._progress is not None and self._reported < len(results)
               and results[self._reported] is not None):
            self._progress(self._reported + 1, len(results),
                           results[self._reported])
            self._reported += 1


def _run_in_order(
    plans: Sequence[RunPlan],
    tracer,
    progress: Optional[ProgressCallback],
    checkpoint: Optional[SweepCheckpoint],
    profile=None,
) -> List[ExperimentResult]:
    """The reference execution: one plan after another, in order."""
    builds = BuildCache()
    book = InOrderResults(len(plans), progress, checkpoint)
    for position, plan in enumerate(plans):
        if not book.resume(position, plan):
            book.complete(position, execute_plan(
                plan, tracer=tracer, builds=builds, profile=profile,
            ), plan)
    return book.results


class SerialExecutor:
    """Run plans one at a time, in plan order, in this process."""

    def run(
        self,
        plans: Sequence[RunPlan],
        *,
        tracer=None,
        progress: Optional[ProgressCallback] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        profile=None,
    ) -> List[ExperimentResult]:
        return _run_in_order(list(plans), tracer, progress, checkpoint,
                             profile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


# Per-worker build cache, created lazily on the worker's first plan.
# Module-level so :func:`_execute_in_worker` stays picklable by name.
_WORKER_BUILDS: Optional[BuildCache] = None


def _execute_in_worker(plan: RunPlan) -> ExperimentResult:
    """Worker-side entry point: execute one plan with the worker's cache."""
    global _WORKER_BUILDS
    if _WORKER_BUILDS is None:
        _WORKER_BUILDS = BuildCache()
    return execute_plan(plan, builds=_WORKER_BUILDS)


class ParallelExecutor:
    """Run plans on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``jobs`` is the *requested* worker-process count; at ``run()`` time
    it is clamped to :func:`usable_cores` so oversubscription never
    turns the pool into a pessimization.  ``jobs=1``, a host with a
    single usable core, and any run with an enabled tracer attached all
    degrade to the serial in-process path, which is byte-identical
    anyway and skips the pool overhead.
    """

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)

    def effective_jobs(self) -> int:
        """The worker count a run will actually use: jobs ∧ usable cores."""
        return min(self.jobs, usable_cores())

    def run(
        self,
        plans: Sequence[RunPlan],
        *,
        tracer=None,
        progress: Optional[ProgressCallback] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        profile=None,
    ) -> List[ExperimentResult]:
        plans = list(plans)
        tracing = tracer is not None and tracer.enabled
        profiling = profile is not None and profile.enabled
        jobs = self.effective_jobs()
        if tracing or profiling or jobs == 1 or len(plans) <= 1:
            # Enabled tracing needs one sink in simulation order, and an
            # enabled profiler (or a tracer's monitor suite) accumulates
            # in-process state a worker could not ship back; tiny,
            # single-worker, or single-core runs gain nothing from a
            # pool — on a 1-core host the pool *costs* wall clock.
            return _run_in_order(plans, tracer, progress, checkpoint,
                                 profile)

        book = InOrderResults(len(plans), progress, checkpoint)
        pending = [position for position, plan in enumerate(plans)
                   if not book.resume(position, plan)]
        if not pending:
            return book.results

        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_in_worker, plans[position]): position
                for position in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    position = futures[future]
                    result = future.result()  # re-raises worker errors
                    book.complete(position, result, plans[position])
        return book.results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(jobs={self.jobs})"


def resolve_executor(jobs: int = 1) -> Executor:
    """The executor a ``jobs`` count asks for: serial at 1, pooled above."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
