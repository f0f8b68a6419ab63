"""Fleet execution: expand homogeneous segments straight into batch runs.

:func:`run_fleet` is the batch engine's counterpart of
:func:`repro.population.run.run_population`: same spec in, same
:class:`~repro.population.run.PopulationResult` out, but homogeneous
segments (every distributed field a :class:`Constant`) with a batchable
policy skip plan expansion entirely — the whole segment becomes one
columnar engine run over a ``(steps, clients)`` trace matrix.
Multi-channel programs batch natively (the engine carries the
vectorized tuner).  Heterogeneous segments whose distributed fields all
have *finite support* (:class:`Constant` / :class:`Choice` /
:class:`UniformInt`) are **sub-segmented**: each client's parameter
draws are replayed through
:func:`~repro.population.spec.client_overrides` (preserving the
``derive_seed`` per-client identity exactly), clients with equal draws
bucket into one homogeneous sub-batch, and each bucket runs columnar.
Only continuous draws (:class:`Uniform`) or unbatchable sampled
policies still fall back to the scalar per-client path through
:func:`~repro.exec.run.execute_plan`.

Every batched group — a homogeneous segment or a sub-segment bucket —
runs the exact columnar engine: each client's trace is drawn from its
own ``RandomStreams(derive_seed(spec.seed, index))`` streams (those of
its per-client run), and the engine arithmetic is
byte-identical to ``fast``.  The per-client results then fold through
the same :func:`~repro.population.run.finish_population` tail as
``run_population``, so a fleet's rollup *is* the per-client fold,
modulo wall-clock fields.  A tracer, profiler or monitor observes the
same path a bare run takes; every miss dispatches through
:meth:`~repro.core.schedule.BroadcastSchedule.next_arrival_batch`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.engine import batchable_policy_name, build_columnar_engine
from repro.errors import ConfigurationError
from repro.exec.build import BuildCache
from repro.exec.plan import RunPlan, derive_seed
from repro.exec.run import (
    _warmup_trace_allowance,
    execute_plan,
    monitored_run,
    require_measured,
)
from repro.obs.clock import perf_counter
from repro.population.aggregate import DEFAULT_GAMMA
from repro.population.run import PopulationResult, finish_population
from repro.population.spec import (
    _INT_FIELDS,
    Choice,
    Constant,
    PopulationSpec,
    SegmentSpec,
    UniformInt,
    client_config,
    client_overrides,
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

    def __init__(self, mean_response_time, measured_requests,
                 warmup_requests, hit_rate):
        self.mean_response_time = mean_response_time
        self.measured_requests = measured_requests
        self.warmup_requests = warmup_requests
        self.hit_rate = hit_rate
        self.wall_seconds = 0.0


def _group_config(spec: PopulationSpec, segment: SegmentSpec):
    """The shared config of a homogeneous segment, or None.

    A segment is homogeneous when every distributed field is a
    :class:`Constant`; the values are coerced exactly as
    :func:`~repro.population.spec.client_config` coerces sampled ones.
    """
    overrides: Dict[str, object] = {}
    for field_name, distribution in segment.distributions().items():
        if not isinstance(distribution, Constant):
            return None
        value = distribution.value
        if field_name in _INT_FIELDS:
            value = int(value)
        elif field_name != "policy":
            value = float(value)
        overrides[field_name] = value
    return spec.base.with_(
        label=f"{spec.name}/{segment.name}", **overrides
    )


#: Distributions with finite support: a heterogeneous segment drawing
#: only from these has a bounded set of distinct client identities and
#: can be sub-segmented into homogeneous buckets.
_FINITE_DISTRIBUTIONS = (Constant, Choice, UniformInt)


def _sub_segments(
    spec: PopulationSpec, segment: SegmentSpec, indices: range
) -> Optional[List[Tuple[object, List[int]]]]:
    """Deterministic sub-segmentation of a finite-support segment.

    Replays every client's parameter draws through
    :func:`~repro.population.spec.client_overrides` — the exact
    ``derive_seed``-rooted streams the per-client path consumes, so
    each client keeps its fleet-size-independent identity — and buckets
    clients with equal draws into ``(shared config, client indices)``
    groups, ordered by first appearance.  Returns ``None`` when any
    distributed field has continuous support (:class:`Uniform` draws
    are almost surely all distinct, so bucketing buys nothing).

    Bucket configs share the segment-level label (per-client labels and
    seeds are reattached by the columnar path's own per-client streams)
    and bucket clients need not be contiguous — the columnar group
    runner indexes clients individually.
    """
    distributions = segment.distributions().values()
    if not all(isinstance(d, _FINITE_DISTRIBUTIONS) for d in distributions):
        return None
    members: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    sampled: Dict[Tuple, Dict[str, object]] = {}
    for client in indices:
        overrides = client_overrides(spec, segment, client)
        key = tuple(sorted(overrides.items()))
        bucket = members.get(key)
        if bucket is None:
            members[key] = [client]
            sampled[key] = overrides
        else:
            bucket.append(client)
    return [
        (
            spec.base.with_(
                label=f"{spec.name}/{segment.name}", **sampled[key]
            ),
            clients,
        )
        for key, clients in members.items()
    ]


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
    spec, segment, indices, config, schedule, layout, *,
    tracer=None, profile=None, monitors=None,
) -> List[_FleetClientStats]:
    """Run one homogeneous group through the exact columnar engine."""
    clients = len(indices)
    engine = build_columnar_engine(
        config, schedule, layout,
        _group_physical(spec, indices, config, layout), clients,
    )
    if engine is None:  # pragma: no cover - callers pre-check the policy
        raise ConfigurationError(
            f"policy {config.policy!r} has no columnar formulation"
        )
    total = config.num_requests + _warmup_trace_allowance(config)
    pages = _group_traces(spec, indices, config, total)

    profiling = profile is not None and profile.enabled
    with monitored_run(config, schedule, tracer=tracer,
                       monitors=monitors) as run_tracer:
        labels: Optional[Sequence[str]] = None
        if run_tracer is not None and run_tracer.enabled and clients > 1:
            labels = [
                f"{spec.name}/{segment.name}/client{client}"
                for client in indices
            ]
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
                profile.start_phase("build")
        if profiling:
            profile.count("requests.measured", int(outcome.count.sum()))
            profile.count("requests.warmup", int(outcome.warmup_seen.sum()))
    require_measured(config, bool(outcome.count.all()))
    return [
        _FleetClientStats(
            mean_response_time=float(outcome.mean[column]),
            measured_requests=int(outcome.count[column]),
            warmup_requests=int(outcome.warmup_seen[column]),
            hit_rate=outcome.hit_rate(column),
        )
        for column in range(clients)
    ]


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
) -> PopulationResult:
    """Simulate ``spec`` through the batch engine and return its rollup.

    Homogeneous segments with a batchable policy run as columnar
    groups (multi-channel programs included — the engine carries the
    vectorized tuner); heterogeneous segments with finite-support
    draws are sub-segmented into homogeneous buckets that run columnar
    too; everything else falls back to per-client ``fast`` plans.  The
    results are identical either way, so mixed fleets stay consistent
    and the rollup equals :func:`~repro.population.run.run_population`'s.
    """
    started = perf_counter()
    profiling = profile is not None and profile.enabled
    # Layouts and schedules, shared by every group and plan fallback of
    # this run that broadcasts the same program.
    builds = BuildCache()
    client_stats: List[object] = [None] * spec.num_clients

    def run_group(segment, clients, config):
        """One homogeneous group (or bucket) through the columnar engine;
        results land in ``client_stats``."""
        if profiling:
            profile.start_phase("build")
        layout, schedule = builds.layout_and_schedule(config)
        stats = _run_group_columnar(
            spec, segment, clients, config, schedule, layout,
            tracer=tracer, profile=profile, monitors=monitors,
        )
        for client, per_client in zip(clients, stats):
            client_stats[client] = per_client
        if profiling:
            profile.stop_phase("build")

    def run_scalar(segment, clients):
        """The scalar per-client path.  ``fast`` rather than
        ``spec.engine`` — a single-client batch run is byte-identical
        to fast, only slower."""
        for client in clients:
            plan = RunPlan(
                config=client_config(spec, segment, client),
                engine="fast",
                collect_responses=False,
                index=client,
            )
            client_stats[client] = execute_plan(
                plan, tracer=tracer, builds=builds,
                profile=profile, monitors=monitors,
            )

    for segment, indices in spec.segment_ranges():
        config = _group_config(spec, segment)
        groups = ([(config, indices)] if config is not None
                  else _sub_segments(spec, segment, indices))
        if groups is None:
            # Continuous draws: the scalar per-client path.
            run_scalar(segment, indices)
            continue
        for group_config, clients in groups:
            if batchable_policy_name(group_config.policy):
                run_group(segment, clients, group_config)
            else:
                run_scalar(segment, clients)

    return finish_population(
        spec, client_stats, started=started, gamma=gamma, tracer=tracer,
        manifest=manifest, profile=profile, monitors=monitors,
    )
