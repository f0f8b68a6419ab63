"""Plan execution: from a :class:`~repro.exec.plan.RunPlan` to a result.

This module owns the single code path that turns a plan into an
:class:`ExperimentResult` — the same path for every executor, so a
result depends only on the plan, never on who ran it or alongside what.

Determinism contract (asserted by ``tests/test_exec_parallel.py``):
``execute_plan(plan)`` is a pure function of the plan up to the
``wall_seconds`` field.  Layout/schedule reuse through a
:class:`~repro.exec.build.BuildCache` changes construction cost only;
random streams are derived inside the call from the plan's config.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.cache.base import TracedCache
from repro.errors import ConfigurationError
from repro.exec.build import BuildCache
from repro.exec.plan import RunPlan
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import EngineOutcome, FastEngine
from repro.experiments.simengine import run_single_client
from repro.obs.clock import perf_counter
from repro.obs.monitor import MonitorContext
from repro.obs.trace import Tracer
from repro.sim.stats import RunningStats
from repro.workload.trace import generate_trace

#: Extra requests drawn beyond the measured count so the warm-up phase
#: (cache fill) never exhausts the trace.  The cache needs at least
#: ``cache_size`` misses to fill; skew makes warm-up take longer, so the
#: allowance is generous and checked after the run.
_WARMUP_ALLOWANCE_FACTOR = 6


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


def _warmup_trace_allowance(config: ExperimentConfig) -> int:
    """Requests to draw beyond the measured phase for cache warm-up."""
    if config.warmup_requests is not None:
        return config.warmup_requests
    if not config.has_cache:
        return 8  # a couple of requests fills the 1-page cache
    fill_allowance = max(2_000, _WARMUP_ALLOWANCE_FACTOR * config.cache_size)
    return fill_allowance + config.extra_warmup


@contextmanager
def monitored_run(
    config: ExperimentConfig, schedule, *, tracer, monitors
) -> Iterator[Optional[Tracer]]:
    """The tracer one run emits to, with ``monitors`` fed from it.

    An enabled :class:`repro.obs.monitor.MonitorSuite` begins a run on
    entry and listens through the caller's enabled tracer when there is
    one, otherwise through a private internal tracer (so monitoring
    needs no sink plumbing).  The suite is detached from the caller's
    tracer even when the run raises; after a clean run it ends the run,
    which raises :class:`~repro.errors.MonitorError` in strict mode.
    Without an enabled suite the caller's tracer passes through.
    """
    if monitors is None or not monitors.enabled:
        yield tracer
        return
    monitors.begin_run(MonitorContext(
        label=config.describe(),
        schedule=schedule,
        cache_capacity=config.cache_size if config.has_cache else None,
    ))
    if tracer is not None and tracer.enabled:
        tracer.add_sink(monitors)
        try:
            yield tracer
        finally:
            tracer.remove_sink(monitors)
    else:
        yield Tracer(monitors)
    monitors.end_run()  # raises MonitorError in strict mode


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
        report = run_single_client(
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
        return EngineOutcome(
            response=report.response,
            counters=report.counters,
            measured_requests=report.response.count,
            warmup_requests=report.warmup_requests,
            final_time=report.final_time,
            samples=report.samples,
            retunes=report.retunes,
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


def execute_plan(
    plan: RunPlan,
    *,
    tracer=None,
    builds: Optional[BuildCache] = None,
    profile=None,
    monitors=None,
) -> ExperimentResult:
    """Run one plan and return its measurements.

    The plan's engine name picks the loop: ``batch`` a one-client
    :class:`~repro.batch.engine.ColumnarEngine` (a fast loop for
    policies without a columnar form), ``fast`` and ``fast-reference``
    a :class:`~repro.experiments.engine.FastEngine`, ``process``
    :func:`~repro.experiments.simengine.run_single_client`.

    ``tracer`` attaches a :class:`repro.obs.trace.Tracer` to the engine
    (and, for the process engine, the kernel and channel) and wraps a
    scalar cache in a :class:`~repro.cache.base.TracedCache`.  ``builds``
    supplies a :class:`~repro.exec.build.BuildCache` so plans sharing a
    broadcast structure reuse the constructed layout and schedule.

    ``profile`` attaches a :class:`repro.obs.profile.Profiler` that
    times the build and run phases and counts plans and requests.
    ``monitors`` attaches a :class:`repro.obs.monitor.MonitorSuite`
    through :func:`monitored_run`.  Neither hook changes which loop
    runs or what it measures: the fast engine runs its one loop either
    way, with guarded trace emits and profiler bookkeeping after the
    loop.
    """
    config = plan.config
    started = perf_counter()
    profiling = profile is not None and profile.enabled
    if profiling:
        profile.start_phase("build")
    if builds is None:
        layout = config.build_layout()
        schedule = config.build_schedule(layout)
    else:
        layout, schedule = builds.layout_and_schedule(config)
    streams = config.build_streams()
    mapping = config.build_mapping(layout, streams)
    distribution = config.build_distribution()
    columnar = None
    if plan.engine == "batch":
        # Imported lazily: ``repro.batch`` itself imports this module.
        from repro.batch.engine import build_columnar_engine

        # A one-client columnar run carries its own array-state policy
        # and is byte-identical to ``fast``.  Policies without a
        # columnar form (LRU-K, 2Q) get ``None`` and run the scalar
        # cache on the fast loop, which changes only the strategy.
        columnar = build_columnar_engine(
            config, schedule, layout, mapping.physical_array()[None, :], 1
        )
    if columnar is None:
        cache = config.build_policy(schedule, mapping, distribution, layout)

    allowance = _warmup_trace_allowance(config)
    total_requests = config.num_requests + allowance
    if config.drift_rotations:
        # Drifting workload: the trace rotates its hotspot over the run
        # while the policy oracle keeps the frozen t=0 snapshot (§3's
        # stale-profile scenario, as in ``figures.drift_study``).
        drift = config.build_drift(total_requests)
        trace = drift.generate_trace(
            total_requests, streams.stream("requests")
        )
    else:
        trace = generate_trace(
            distribution, total_requests, streams.stream("requests")
        )
    if profiling:
        profile.stop_phase("build")
        profile.start_phase("run")

    with monitored_run(config, schedule, tracer=tracer,
                       monitors=monitors) as run_tracer:
        if columnar is not None:
            outcome = columnar.run(
                trace.pages[:, None],
                warmup_requests=config.warmup_requests,
                extra_warmup=config.extra_warmup,
                collect_responses=plan.collect_responses,
                tracer=run_tracer,
                profile=profile,
            ).to_engine_outcome(0)
        else:
            if run_tracer is not None and run_tracer.enabled:
                cache = TracedCache(cache, run_tracer)
            outcome = _run_scalar(
                plan, schedule, mapping, layout, cache, trace,
                tracer=run_tracer, profile=profile,
            )
        if profiling:
            profile.stop_phase("run")
            profile.count("plans", 1)
            profile.count("requests.measured", outcome.measured_requests)
            profile.count("requests.warmup", outcome.warmup_requests)
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
        wall_seconds=perf_counter() - started,
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
