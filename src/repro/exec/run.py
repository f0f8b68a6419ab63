"""Plan execution: from a :class:`~repro.exec.plan.RunPlan` to a result.

This module owns the single code path that turns a plan into an
:class:`ExperimentResult` — the same path in and out of workers, so a
result depends only on the plan, never on who ran it or alongside what.

Determinism contract (asserted by ``tests/test_exec_parallel.py``):
``execute_plan(plan)`` is a pure function of the plan up to the
``wall_seconds`` field.  Layout, schedule, mapping and trace reuse
through a :class:`~repro.exec.build.BuildCache` changes construction
cost only: every random stream is derived from the plan's config, and
a reused object is the one the same key would build.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.cache.batched import batchable_policy_name
from repro.errors import ConfigurationError
from repro.exec.build import BuildCache, TraceBlocks
from repro.exec.plan import RunPlan
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EngineOutcome, FastEngine
from repro.experiments.simengine import run_single_client
from repro.obs.clock import perf_counter
from repro.obs.monitor import MonitorContext
from repro.sim.rng import RandomStreams
from repro.sim.stats import RunningStats

@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    config: ExperimentConfig
    mean_response_time: float
    response_stats: RunningStats
    hit_rate: float
    access_locations: Dict[str, float]
    measured_requests: int
    warmup_requests: int
    schedule_period: int
    schedule_utilisation: float
    wall_seconds: float
    samples: Optional[List[float]] = None
    #: The run manifest dict, present when ``run_experiment`` was asked
    #: to write one (``manifest=...``).
    manifest: Optional[Dict] = None
    #: Measured-phase channel switches (multi-channel runs; 0 otherwise).
    retunes: int = 0
    #: Per-channel slot utilisation for multi-channel programs; ``None``
    #: on the single-channel path so legacy result dicts are unchanged.
    channel_utilisation: Optional[List[float]] = None

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.config.describe()}: "
            f"response={self.mean_response_time:.1f} bu, "
            f"hit_rate={self.hit_rate:.1%}, "
            f"period={self.schedule_period}"
        )


@contextmanager
def monitored_run(config: ExperimentConfig, schedule,
                  tracer) -> Iterator[None]:
    """Bracket one run of ``config`` on an enabled ``tracer``.

    The tracer begins a run on entry and ends it after a clean exit, on
    each sink that takes runs: a :class:`repro.obs.monitor.MonitorSuite`
    among them checks the run's records and raises
    :class:`~repro.errors.MonitorError` at the end in strict mode.
    Without an enabled tracer there is nothing to bracket.
    """
    if tracer is None or not tracer.enabled:
        yield
        return
    tracer.begin_run(MonitorContext(
        label=config.describe(),
        schedule=schedule,
        cache_capacity=config.cache_size if config.has_cache else None,
    ))
    yield
    tracer.end_run()  # a strict suite raises MonitorError here


def require_measured(config: ExperimentConfig, measured: bool) -> None:
    """Reject a run whose warm-up left no request to measure."""
    if not measured:
        raise ConfigurationError(
            f"warm-up consumed the whole trace for {config.describe()}; "
            "increase num_requests or lower cache_size"
        )


def _run_scalar(
    plan: RunPlan, schedule, mapping, layout, cache, trace, *, tracer, profile
) -> EngineOutcome:
    """Run one plan's scalar cache on the process engine or a fast loop.

    ``fast-reference`` is the fast engine's loop with every miss timed
    by ``next_arrival_bisect`` instead of the §2.1 closed form; it is
    the baseline arm of ``benchmarks/bench_engine.py``.
    """
    config = plan.config
    if plan.engine == "process":
        return run_single_client(
            schedule=schedule,
            layout=layout,
            mapping=mapping,
            cache=cache,
            trace=trace,
            think_time=config.think_time,
            warmup_requests=config.warmup_requests,
            collect_responses=plan.collect_responses,
            extra_warmup=config.extra_warmup,
            tracer=tracer,
            profile=profile,
            retune_cost=config.retune_cost,
        )
    engine = FastEngine(
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        think_time=config.think_time,
        tracer=tracer,
        profile=profile,
        retune_cost=config.retune_cost,
    )
    run = (engine.run_trace_reference if plan.engine == "fast-reference"
           else engine.run_trace)
    return run(
        trace,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
    )


def run_columnar(
    config: ExperimentConfig,
    seeds: Sequence[int],
    builds: BuildCache,
    *,
    labels: Optional[Sequence[str]] = None,
    collect_responses: bool = False,
    tracer=None,
    profile=None,
):
    """Run ``config`` once per seed as the columns of one columnar run.

    Column ``c`` draws its mapping and trace from ``seeds[c]``'s
    streams, as a plan of ``config`` with that seed does, so its result
    does not depend on the seeds beside it.  The traces reach the
    engine as :class:`~repro.exec.build.TraceBlocks`, drawn a block of
    steps at a time as the run goes, so the run never holds a
    ``(steps, clients)`` trace matrix.  A ``batch`` plan is a one-seed
    call, and a fleet makes one call per bucket.  Observers see a bare
    run's path; a traced run labels column ``c`` ``labels[c]``.
    Returns the :class:`~repro.batch.engine.BatchOutcome`, and the
    schedule and layout it ran on.
    """
    # Imported lazily: ``repro.batch`` itself imports this module.
    from repro.batch.engine import build_columnar_engine

    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("build")
    layout, schedule = builds.layout_and_schedule(config)
    # Logical→physical rows over the access range: one shared row when
    # noise-free, else each seed's own mapping.
    access_range = config.access_range
    if config.noise <= 0.0:
        physical = config.build_mapping(layout).physical_array()[
            None, :access_range
        ]
    else:
        physical = np.empty((len(seeds), access_range), dtype=np.int64)
        for row, seed in enumerate(seeds):
            mapping = config.build_mapping(layout, RandomStreams(seed))
            physical[row] = mapping.physical_array()[:access_range]
    engine = build_columnar_engine(config, schedule, layout, physical,
                                   len(seeds))
    trace = TraceBlocks(config, seeds, config.requests_drawn)

    with monitored_run(config, schedule, tracer):
        if profiling:
            profile.stop_phase("build")
            profile.start_phase("run")
        try:
            outcome = engine.run(
                trace,
                warmup_requests=config.warmup_requests,
                extra_warmup=config.extra_warmup,
                collect_responses=collect_responses,
                tracer=tracer,
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


def execute_plan(
    plan: RunPlan,
    *,
    tracer=None,
    builds: Optional[BuildCache] = None,
    profile=None,
) -> ExperimentResult:
    """Run one plan and return its measurements.

    The plan's engine name picks the loop: ``batch`` a one-seed
    :func:`run_columnar` (a fast loop for policies without a columnar
    form), ``fast`` and ``fast-reference`` a
    :class:`~repro.experiments.engine.FastEngine`, ``process``
    :func:`~repro.experiments.simengine.run_single_client`.

    ``tracer`` attaches a :class:`repro.obs.trace.Tracer` to the engine
    (and, for the process engine, the kernel and channel), whose loop
    emits the run's ``client.*`` and ``cache.*`` records, and brackets
    the run with :func:`monitored_run` for the
    :class:`repro.obs.monitor.MonitorSuite` among its sinks.  ``builds``
    supplies a :class:`~repro.exec.build.BuildCache` so plans sharing a
    broadcast structure reuse the constructed layout and schedule, and
    consecutive scalar plans sharing a mapping or trace reuse that too.

    ``profile`` attaches a :class:`repro.obs.profile.Profiler` that
    times the build and run phases and counts plans and requests.
    Neither hook changes which loop runs or what it measures: the fast
    engine runs its one loop either way, with guarded trace emits and
    profiler bookkeeping after the loop.
    """
    config = plan.config
    started = perf_counter()
    profiling = profile is not None and profile.enabled
    if builds is None:
        builds = BuildCache()
    if plan.engine == "batch" and batchable_policy_name(config.policy):
        # A one-client columnar run carries its own array-state policy
        # and is byte-identical to ``fast``.  Policies without a
        # columnar form (LRU-K, 2Q) run the scalar cache on the fast
        # loop below, which changes only the strategy.
        columns, schedule, layout = run_columnar(
            config, [config.seed], builds,
            collect_responses=plan.collect_responses,
            tracer=tracer, profile=profile,
        )
        outcome = columns.to_engine_outcome(0)
    else:
        if profiling:
            profile.start_phase("build")
        layout, schedule = builds.layout_and_schedule(config)
        mapping = builds.mapping(config, layout)
        cache = config.build_policy(schedule, mapping,
                                    config.build_distribution(), layout)
        trace = builds.trace(config, config.requests_drawn)
        if profiling:
            profile.stop_phase("build")
            profile.start_phase("run")

        with monitored_run(config, schedule, tracer):
            outcome = _run_scalar(
                plan, schedule, mapping, layout, cache, trace,
                tracer=tracer, profile=profile,
            )
            if profiling:
                profile.stop_phase("run")
                profile.count("requests.measured", outcome.measured_requests)
                profile.count("requests.warmup", outcome.warmup_requests)
    if profiling:
        profile.count("plans", 1)
    return experiment_result(config, outcome, schedule, layout,
                             wall_seconds=perf_counter() - started)


def experiment_result(config: ExperimentConfig, outcome: EngineOutcome,
                      schedule, layout, *,
                      wall_seconds: float) -> ExperimentResult:
    """The result of one run's ``outcome``: the tail of
    :func:`execute_plan` and of a fleet's whole per-client results."""
    require_measured(config, outcome.measured_requests > 0)

    # A multi-channel program reports its aggregate utilisation over
    # all channel slots plus the per-channel breakdown; the
    # single-channel expression is untouched.
    channel_utilisation = None
    if hasattr(schedule, "channel_utilisation"):
        utilisation = schedule.utilisation
        channel_utilisation = list(schedule.channel_utilisation())
    else:
        utilisation = 1.0 - schedule.empty_slots / schedule.period

    return ExperimentResult(
        config=config,
        mean_response_time=outcome.response.mean,
        response_stats=outcome.response,
        hit_rate=outcome.counters.hit_rate,
        access_locations=outcome.counters.access_locations(layout.num_disks),
        measured_requests=outcome.measured_requests,
        warmup_requests=outcome.warmup_requests,
        schedule_period=schedule.period,
        schedule_utilisation=utilisation,
        wall_seconds=wall_seconds,
        samples=outcome.samples,
        retunes=outcome.retunes,
        channel_utilisation=channel_utilisation,
    )


# ---------------------------------------------------------------------------
# Exact result (de)serialisation — the checkpoint journal's substrate.
# ---------------------------------------------------------------------------

def result_state(result: ExperimentResult) -> Dict:
    """Everything in a result except its config, exactly.

    Unlike the manifest (a human-facing summary), this block carries the
    :class:`RunningStats` internals (count, mean, M2, extrema) and the
    raw samples, so :func:`result_from_state` rebuilds the result
    bit-for-bit — JSON round-trips Python floats exactly.
    """
    stats = result.response_stats
    return {
        "response_state": {
            "count": stats.count,
            "mean": stats._mean,
            "m2": stats._m2,
            "min": None if math.isinf(stats.minimum) else stats.minimum,
            "max": None if math.isinf(stats.maximum) else stats.maximum,
        },
        "mean_response_time": result.mean_response_time,
        "hit_rate": result.hit_rate,
        "access_locations": dict(result.access_locations),
        "measured_requests": result.measured_requests,
        "warmup_requests": result.warmup_requests,
        "schedule_period": result.schedule_period,
        "schedule_utilisation": result.schedule_utilisation,
        "wall_seconds": result.wall_seconds,
        "samples": result.samples,
        "retunes": result.retunes,
        "channel_utilisation": result.channel_utilisation,
    }


def result_from_state(config: ExperimentConfig, state: Dict) -> ExperimentResult:
    """Rebuild the exact :class:`ExperimentResult` a state block encodes."""
    block = state["response_state"]
    stats = RunningStats()
    stats.count = int(block["count"])
    stats._mean = float(block["mean"])
    stats._m2 = float(block["m2"])
    stats.minimum = math.inf if block["min"] is None else float(block["min"])
    stats.maximum = -math.inf if block["max"] is None else float(block["max"])
    samples = state.get("samples")
    return ExperimentResult(
        config=config,
        mean_response_time=float(state["mean_response_time"]),
        response_stats=stats,
        hit_rate=float(state["hit_rate"]),
        access_locations=dict(state["access_locations"]),
        measured_requests=int(state["measured_requests"]),
        warmup_requests=int(state["warmup_requests"]),
        schedule_period=int(state["schedule_period"]),
        schedule_utilisation=float(state["schedule_utilisation"]),
        wall_seconds=float(state["wall_seconds"]),
        samples=None if samples is None else [float(s) for s in samples],
        retunes=int(state.get("retunes", 0)),
        channel_utilisation=(
            None if state.get("channel_utilisation") is None
            else [float(u) for u in state["channel_utilisation"]]
        ),
    )
