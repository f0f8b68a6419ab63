"""The engine registry: one authoritative table of simulation engines.

Engine choice used to be a pair of magic strings (``"fast"`` /
``"process"``) compared in ``if`` chains scattered over the plan layer,
the runner, and the CLI.  This module replaces the strings with
registered :class:`EngineSpec` entries, so

* validation happens in one place and every rejection lists the valid
  names (``ConfigurationError``);
* the plan layer dispatches through the spec's ``run_plan`` callable
  instead of string-matching;
* engines that do *not* execute :class:`~repro.exec.plan.RunPlan`
  objects — the hybrid push/pull channel and the multi-page query
  studies — are registered alongside, so ``get_engine("hybrid")``
  resolves to its study entry point rather than failing as a typo.

The four built-ins register at import time; extensions call
:func:`register_engine` with their own spec.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EngineSpec:
    """One registered simulation engine.

    ``run_plan`` is the executor-side entry point for plan-capable
    engines: it receives the plan plus the pre-built components and
    returns an :class:`~repro.experiments.engine.EngineOutcome`.
    Study engines leave it ``None`` and carry a ``study`` entry point
    (``"module:callable"``) instead.
    """

    name: str
    summary: str
    executes_plans: bool
    run_plan: Optional[Callable] = field(default=None, compare=False)
    study: Optional[str] = None

    def resolve_study(self) -> Callable:
        """Import and return the study entry point for a study engine."""
        if self.study is None:
            raise ConfigurationError(
                f"engine {self.name!r} has no study entry point"
            )
        module_name, _, attribute = self.study.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attribute)


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add ``spec`` to the registry; re-registering a name is an error."""
    if spec.name in _REGISTRY and _REGISTRY[spec.name] != spec:
        raise ConfigurationError(
            f"engine {spec.name!r} is already registered"
        )
    if spec.executes_plans and spec.run_plan is None:
        raise ConfigurationError(
            f"plan engine {spec.name!r} needs a run_plan callable"
        )
    _REGISTRY[spec.name] = spec
    return spec


def engine_names() -> Tuple[str, ...]:
    """Every registered engine name, sorted."""
    return tuple(sorted(_REGISTRY))


def plan_engine_names() -> Tuple[str, ...]:
    """Names of the engines that can execute a RunPlan, sorted."""
    return tuple(
        sorted(name for name, spec in _REGISTRY.items()
               if spec.executes_plans)
    )


def get_engine(name: str) -> EngineSpec:
    """The spec registered under ``name``; unknown names list the valid set."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; valid engines: "
            f"{', '.join(engine_names())}"
        )
    return spec


def get_plan_engine(name: str) -> EngineSpec:
    """Like :func:`get_engine`, but the engine must execute RunPlans."""
    spec = get_engine(name)
    if not spec.executes_plans:
        raise ConfigurationError(
            f"engine {name!r} does not execute RunPlans (it is a study "
            f"engine: {spec.study}); plan-capable engines: "
            f"{', '.join(plan_engine_names())}"
        )
    return spec


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------

def _fast_engine(config, schedule, mapping, layout, cache, tracer, profile,
                 retune_cost):
    from repro.experiments.engine import FastEngine

    return FastEngine(
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        think_time=config.think_time,
        tracer=tracer,
        profile=profile,
        retune_cost=retune_cost,
    )


def _run_plan_fast(plan, *, config, schedule, mapping, layout, cache, trace,
                   tracer=None, profile=None, channels=1, retune_cost=1.0):
    """Drive the analytic-stepping engine for one plan.

    ``channels``/``retune_cost`` arrive keyword-only from the plan
    executor; ``schedule`` is already the built single-channel schedule
    or C-row program, so ``channels`` is advisory here and
    ``retune_cost`` parameterises the engine's tuner.
    """
    fast = _fast_engine(config, schedule, mapping, layout, cache, tracer,
                        profile, retune_cost)
    return fast.run_trace(
        trace,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
    )


def _run_plan_fast_reference(plan, *, config, schedule, mapping, layout,
                             cache, trace, tracer=None, profile=None,
                             channels=1, retune_cost=1.0):
    """Drive the fast engine's loop with bisection arithmetic for one plan.

    Same engine object and loop as ``fast`` but through
    :meth:`~repro.experiments.engine.FastEngine.run_trace_reference`:
    every miss is timed by ``next_arrival_bisect`` instead of the §2.1
    closed form.  ``benchmarks/bench_engine.py`` runs it as the
    baseline arm of the byte-identity perf gate.
    """
    fast = _fast_engine(config, schedule, mapping, layout, cache, tracer,
                        profile, retune_cost)
    return fast.run_trace_reference(
        trace,
        warmup_requests=config.warmup_requests,
        collect_responses=plan.collect_responses,
        extra_warmup=config.extra_warmup,
    )


def _run_plan_process(plan, *, config, schedule, mapping, layout, cache,
                      trace, tracer=None, profile=None, channels=1,
                      retune_cost=1.0):
    """Drive the process-oriented engine for one plan."""
    from repro.experiments.engine import EngineOutcome
    from repro.experiments.simengine import run_single_client

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
        retune_cost=retune_cost,
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


def _run_plan_batch(plan, *, config, schedule, mapping, layout, cache,
                    trace, tracer=None, profile=None, channels=1,
                    retune_cost=1.0):
    """Drive the columnar batch engine for a single plan (N == 1).

    Policies without a columnar formulation fall back to ``fast``; the
    single-client batch loop is byte-identical to it anyway (the
    vectorized tuner covers C-row programs too), so the choice never
    changes results, only the execution strategy.  The plan executor
    passes ``cache=None`` when it can predict the columnar path — the
    batch engine carries its own array-state policy — so the fallback
    rebuilds the scalar cache on demand.
    """
    from repro.batch.engine import build_columnar_engine

    engine = build_columnar_engine(
        config, schedule, layout, mapping.physical_array()[None, :], 1
    )
    if engine is None:
        if cache is None:
            from repro.cache.base import TracedCache

            cache = config.build_policy(
                schedule, mapping, config.build_distribution(), layout
            )
            if tracer is not None and tracer.enabled:
                cache = TracedCache(cache, tracer)
        return _run_plan_fast(
            plan, config=config, schedule=schedule, mapping=mapping,
            layout=layout, cache=cache, trace=trace, tracer=tracer,
            profile=profile, channels=channels, retune_cost=retune_cost,
        )
    outcome = engine.run(
        trace.pages[:, None],
        warmup_requests=config.warmup_requests,
        extra_warmup=config.extra_warmup,
        collect_responses=plan.collect_responses,
        tracer=tracer,
        profile=profile,
    )
    return outcome.to_engine_outcome(0)


register_engine(EngineSpec(
    name="fast",
    summary="analytic-stepping single-client engine (full-scale sweeps)",
    executes_plans=True,
    run_plan=_run_plan_fast,
))

register_engine(EngineSpec(
    name="fast-reference",
    summary="fast's loop with bisection arithmetic (perf-gate baseline)",
    executes_plans=True,
    run_plan=_run_plan_fast_reference,
))

register_engine(EngineSpec(
    name="process",
    summary="process-oriented discrete-event engine (CSIM substitute)",
    executes_plans=True,
    run_plan=_run_plan_process,
))

register_engine(EngineSpec(
    name="batch",
    summary="columnar lockstep engine (fleet-scale batches; "
            "single plans byte-match fast)",
    executes_plans=True,
    run_plan=_run_plan_batch,
))

register_engine(EngineSpec(
    name="hybrid",
    summary="hybrid push/pull channel population study",
    executes_plans=False,
    study="repro.hybrid.study:hybrid_population_study",
))

register_engine(EngineSpec(
    name="query",
    summary="multi-page retrieval (sequential vs opportunistic) study",
    executes_plans=False,
    study="repro.experiments.figures:query_study",
))

register_engine(EngineSpec(
    name="multichannel",
    summary="C-channel bandwidth split with single-frequency tuner study",
    executes_plans=False,
    study="repro.experiments.figures:multichannel_study",
))
