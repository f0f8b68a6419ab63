"""The plan runner: :func:`run_plans` turns a plan list into a result list.

It honours one contract, asserted by ``tests/test_exec_parallel.py``:
the returned list matches the plan list position-for-position, and
every per-plan measurement (means, samples, counters — everything
except ``wall_seconds``) is identical no matter how many workers ran
it or in what order the workers finished.  Parallelism is therefore a
pure wall-clock optimisation, never an answer-changing one.

How the process pool keeps the contract:

* each plan is self-contained (frozen config, no live objects), so
  shipping it to a worker process cannot entangle runs;
* results are reassembled by plan position, not completion order;
* the ``progress`` callback fires in plan order — a position is
  reported only once every earlier position has completed — so
  observers see exactly the in-process sequence
  (:class:`InOrderResults` keeps both rules and the journal, for the
  pool, the in-process loop and fleets);
* when an *enabled* tracer is attached, the pool is bypassed and plans
  run serially in-process: trace records must land in one sink in
  simulation order, which cannot be preserved across process
  boundaries.  (A disabled tracer costs nothing and parallelises
  fine.)
* a failing plan or a raising ``progress`` callback cancels every plan
  still queued in the pool before the error propagates, so a failed
  grid stops after the calls already handed to workers; those that
  succeed are journalled (not reported), so a resumed grid keeps them.

Both branches thread a :class:`~repro.exec.build.BuildCache` through
their runs — the in-process loop one per call, the pool one per worker
process — so sweep points sharing a broadcast structure skip schedule
construction, and consecutive points sharing a mapping or trace skip
drawing it.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence

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
    a pessimization, so :func:`run_plans` never exceeds it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


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


# Per-worker build cache, created lazily on the worker's first plan.
# Module-level so :func:`_execute_in_worker` stays picklable by name.
_WORKER_BUILDS: Optional[BuildCache] = None


def _execute_in_worker(plan: RunPlan) -> ExperimentResult:
    """Worker-side entry point: execute one plan with the worker's cache."""
    global _WORKER_BUILDS
    if _WORKER_BUILDS is None:
        _WORKER_BUILDS = BuildCache()
    return execute_plan(plan, builds=_WORKER_BUILDS)


def check_jobs(jobs: int) -> None:
    """Reject a worker count below 1 (or ``None``), naming the value."""
    if jobs is None or jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")


def run_plans(
    plans: Sequence[RunPlan],
    *,
    jobs: int = 1,
    tracer=None,
    progress: Optional[ProgressCallback] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    profile=None,
) -> List[ExperimentResult]:
    """Run ``plans`` and return their results, in plan order.

    Positions ``checkpoint`` already holds are resumed from it; the
    rest run.  ``jobs`` is the *requested* worker-process count: the
    pool gets ``min(jobs, usable_cores(), pending plans)`` workers, so
    oversubscription never turns it into a pessimization.  When that is
    1, or an enabled ``tracer`` or ``profile`` is attached, the pending
    plans run one after another in this process on one
    :class:`~repro.exec.build.BuildCache` — the reference execution,
    byte-identical to the pool and free of its overhead.  ``progress``
    and ``checkpoint`` see every result through :class:`InOrderResults`.
    """
    check_jobs(jobs)
    plans = list(plans)
    book = InOrderResults(len(plans), progress, checkpoint)
    pending = [position for position, plan in enumerate(plans)
               if not book.resume(position, plan)]
    tracing = tracer is not None and tracer.enabled
    profiling = profile is not None and profile.enabled
    workers = min(jobs, usable_cores(), len(pending))
    if tracing or profiling or workers <= 1:
        # Enabled tracing needs one sink in simulation order, and an
        # enabled profiler (or a tracer's monitor suite) accumulates
        # in-process state a worker could not ship back; tiny,
        # single-worker, or single-core runs gain nothing from a
        # pool — on a 1-core host the pool *costs* wall clock.
        builds = BuildCache()
        for position in pending:
            plan = plans[position]
            book.complete(position, execute_plan(
                plan, tracer=tracer, builds=builds, profile=profile,
            ), plan)
        return book.results

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_execute_in_worker, plans[position]): position
            for position in pending
        }
        outstanding = set(futures)
        try:
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    position = futures[future]
                    result = future.result()  # re-raises worker errors
                    book.complete(position, result, plans[position])
        except BaseException:
            # Leaving the block would wait for every queued plan.  The
            # plans already handed to workers still run: journal those
            # that succeeded, so a resumed sweep does not run them again.
            pool.shutdown(cancel_futures=True)
            if checkpoint is not None:
                for future, position in futures.items():
                    if (book.results[position] is None
                            and not future.cancelled()
                            and future.exception() is None):
                        checkpoint.record(plans[position], future.result())
            raise
    return book.results
