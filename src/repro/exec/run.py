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
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.base import TracedCache
from repro.errors import ConfigurationError
from repro.exec.build import BuildCache
from repro.exec.plan import RunPlan
from repro.experiments.config import ExperimentConfig
from repro.experiments.engines import get_plan_engine
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


def execute_plan(
    plan: RunPlan,
    *,
    tracer=None,
    builds: Optional[BuildCache] = None,
    profile=None,
    monitors=None,
) -> ExperimentResult:
    """Run one plan and return its measurements.

    ``tracer`` attaches a :class:`repro.obs.trace.Tracer` to the engine
    (and, for the process engine, the kernel and channel) and wraps the
    cache in a :class:`~repro.cache.base.TracedCache`.  ``builds``
    supplies a :class:`~repro.exec.build.BuildCache` so plans sharing a
    broadcast structure reuse the constructed layout and schedule.

    ``profile`` attaches a :class:`repro.obs.profile.Profiler`: build /
    run phases are timed, the schedule's timing-tier counters are
    switched on, and the per-tier ``next_arrival`` query delta of this
    run is folded in.  ``monitors`` attaches a
    :class:`repro.obs.monitor.MonitorSuite`, fed from the run's trace
    stream — through the caller's enabled tracer when there is one,
    otherwise through a private internal tracer (so monitoring needs no
    sink plumbing).  In strict mode the suite raises
    :class:`~repro.errors.MonitorError` after the run.  Neither hook
    changes which loop runs or what it measures: the fast engine runs
    its one loop either way, with guarded trace emits and profiler
    bookkeeping after the loop.
    """
    config = plan.config
    started = perf_counter()
    profiling = profile is not None and profile.enabled
    monitoring = monitors is not None and monitors.enabled
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
    # Imported lazily: ``repro.batch`` itself imports this module.
    from repro.batch.engine import batchable_policy_name

    if plan.engine == "batch" and batchable_policy_name(config.policy):
        # The columnar engine carries its own array-state policy; a
        # scalar cache built here would never see a request.  Pass
        # ``None`` and let ``_run_plan_batch`` rebuild one only if it
        # actually falls back to the scalar path.
        cache = None
    else:
        cache = config.build_policy(schedule, mapping, distribution, layout)

    if profiling:
        schedule.enable_timing_counters()
        queries_before = schedule.timing_queries()

    effective_tracer = tracer
    attached_to_caller = False
    if monitoring:
        monitors.begin_run(MonitorContext(
            label=config.describe(),
            schedule=schedule,
            cache_capacity=config.cache_size if config.has_cache else None,
        ))
        if tracer is not None and tracer.enabled:
            tracer.add_sink(monitors)
            attached_to_caller = True
        else:
            effective_tracer = Tracer(monitors)

    tracing = effective_tracer is not None and effective_tracer.enabled
    if tracing and cache is not None:
        cache = TracedCache(cache, effective_tracer)

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

    try:
        outcome = get_plan_engine(plan.engine).run_plan(
            plan,
            config=config,
            schedule=schedule,
            mapping=mapping,
            layout=layout,
            cache=cache,
            trace=trace,
            tracer=effective_tracer,
            profile=profile,
            channels=getattr(config, "channels", 1),
            retune_cost=getattr(config, "retune_cost", 1.0),
        )
    finally:
        if attached_to_caller:
            tracer.remove_sink(monitors)

    if profiling:
        profile.stop_phase("run")
        queries_after = schedule.timing_queries()
        profile.add_tier_counts({
            tier: queries_after[tier] - queries_before[tier]
            for tier in queries_after
        })
        profile.count("plans", 1)
        profile.count("requests.measured", outcome.measured_requests)
        profile.count("requests.warmup", outcome.warmup_requests)
    if monitoring:
        monitors.end_run()  # raises MonitorError in strict mode

    if outcome.measured_requests == 0:
        raise ConfigurationError(
            f"warm-up consumed the whole trace for {config.describe()}; "
            "increase num_requests or lower cache_size"
        )

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
