"""CI smoke run for the columnar batch engine.

Seven gates, one per contract the engine and its per-client set-up make
(``src/repro/exec/run.py::run_columnar``):

* **Exactness** — a single-client ``--engine batch`` plan must be
  byte-identical to ``fast`` across channel counts C ∈ {1, 2, 4}:
  result stats, collected samples, retune counters, and the full
  traced record stream (including ``client.retune`` instants).
* **Fleet exactness** — a 1000-client homogeneous cache-less batch
  fleet must fold to the same rollup as the per-client path: equal
  snapshots, wall-clock fields stripped, overall and per segment.
* **Cached-fleet exactness** — a 100-client LIX/PIX fleet at cache
  scale (Figure 13/14 shape: D5, CacheSize = Offset = 200, Noise 30%)
  must fold to the per-client rollup the same way.  The batch/per-client
  speedup is printed, not gated.
* **Column exactness** — a rollup can hide a wrong per-disk count or
  clock, so the ``fleet`` benchmark's bucket pair at CI scale (LIX/PIX,
  D5, CacheSize = Offset = 100, Noise 30%), run through
  :func:`~repro.exec.run.run_columnar`, must give, column by column,
  each client's ``FastEngine`` outcome: Welford internals, hits,
  misses, per-disk misses, warm-up count, final clock and retunes.
  Each client's one-client ``batch`` plan, which takes the same
  columnar entry, must equal its ``fast`` plan's exact result state.  A
  column on Figure 2's skewed program ``A A B C``, which has no closed
  form, must do the same through ``next_arrival_batch``.
* **Invariants** — a strict :class:`~repro.obs.monitor.MonitorSuite`
  over a traced multi-client columnar run must observe interleaved
  per-client records and finish with zero violations, and the
  profiler's ``engine.batch.misses`` must equal the trace's
  ``client.miss`` records.
* **Sub-segmentation** — a heterogeneous multi-channel fleet whose
  segments draw from finite-support distributions (Choice/UniformInt)
  must bucket into homogeneous columnar sub-segments and fold
  byte-identically to the per-client plan path.
* **Set-up oracle** — at paper scale (D1–D5 × Noise 15/30/45/75% × 50
  client streams), every noise mapping decoded from raw generator words
  must equal the scalar swap loop, generator state included, and every
  client's request trace must equal ``searchsorted`` over the CDF.  The
  decode copies NumPy's bounded-integer algorithm, so this gate catches
  a NumPy release that changes it.  Prints how many mappings fell back
  to the loop (paper-size disks reject about 1 draw in 10**6).

Leaves the batch fleet manifest in the artifact directory.

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py --out batch-artifacts
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.batch.engine import ColumnarEngine
from repro.batch.fleet import run_fleet
from repro.cache.base import PolicyContext
from repro.cache.batched import BatchedOracles, make_batched_policy
from repro.cache.registry import make_policy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.exec.build import BuildCache
from repro.exec.plan import RunPlan, derive_seed
from repro.exec.run import (
    _warmup_trace_allowance,
    execute_plan,
    result_state,
    run_columnar,
)
from repro.experiments.engine import FastEngine
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.clock import perf_counter
from repro.obs.manifest import strip_wall_clock
from repro.obs.monitor import MonitorSuite
from repro.obs.profile import Profiler
from repro.obs.trace import MemorySink, Tracer
from repro.population import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    UniformInt,
    client_config,
    run_population,
)
from repro.population.spec import client_groups
from repro.sim.rng import RandomStreams
from repro.workload.mapping import (
    LogicalPhysicalMapping,
    _decoded_swaps,
    _scalar_swaps,
)
from repro.workload.trace import RequestTrace

FLEET_CLIENTS = 1000
CACHED_CLIENTS = 100
CACHED_SIZE = 200
COLUMN_CLIENTS = 60
COLUMN_SIZE = 100
SETUP_STREAMS = 50
SETUP_NOISES = (0.15, 0.30, 0.45, 0.75)
SETUP_REQUESTS = 6000


def single_config(**overrides):
    defaults = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=20,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=400,
        seed=13,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def cacheless_spec(clients: int, engine: str) -> PopulationSpec:
    return PopulationSpec(
        name="batch-smoke",
        base=single_config(cache_size=1, policy="LRU", num_requests=600),
        seed=21,
        engine=engine,
        segments=(SegmentSpec("uniform", clients),),
    )


def check(condition: bool, message: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def gate_exactness(failures: list) -> None:
    for channels in (1, 2, 4):
        print(f"single-client exactness, C={channels} (batch vs fast):")
        overrides = {} if channels == 1 else {"channels": channels}
        traces = {}
        results = {}
        for engine in ("fast", "batch"):
            sink = MemorySink(capacity=200_000)
            results[engine] = run_experiment(
                single_config(**overrides), engine=engine,
                collect_responses=True, tracer=Tracer(sink),
            )
            traces[engine] = [
                (record.time, record.kind, record.fields)
                for record in sink.records
            ]
        fast, batch = results["fast"], results["batch"]
        check(batch.mean_response_time == fast.mean_response_time,
              "mean response time identical", failures)
        check(batch.hit_rate == fast.hit_rate, "hit rate identical",
              failures)
        check(batch.samples == fast.samples,
              "per-request samples identical", failures)
        check(batch.retunes == fast.retunes,
              f"retune counters identical ({fast.retunes})", failures)
        check(
            (batch.measured_requests, batch.warmup_requests)
            == (fast.measured_requests, fast.warmup_requests),
            "request accounting identical", failures,
        )
        check(traces["batch"] == traces["fast"]
              and len(traces["batch"]) > 0,
              f"traced record streams identical "
              f"({len(traces['fast'])} records)", failures)
        if channels > 1:
            retunes = sum(
                1 for r in traces["batch"] if r[1] == "client.retune"
            )
            check(retunes > 0,
                  f"retune records present ({retunes})", failures)


def rollups(result) -> dict:
    """Overall and per-segment snapshots, wall-clock fields stripped."""
    return strip_wall_clock({
        "overall": result.overall.snapshot(),
        **{name: block.snapshot() for name, block in result.segments.items()},
    })


def check_rollups(batch, per_client, failures: list) -> None:
    """Equal overall and per-segment rollups, batch vs per-client."""
    expected = rollups(per_client)
    got = rollups(batch)
    for name in expected:
        check(got.get(name) == expected[name],
              f"{name} rollup identical (mean "
              f"{expected[name]['response_mean']['mean']:.3f} bu over "
              f"{expected[name]['clients']} clients)", failures)


def gate_fleet_exactness(failures: list, out: Path) -> None:
    print(f"{FLEET_CLIENTS}-client cache-less fleet exactness (batch vs "
          "per-client):")
    per_client = run_population(cacheless_spec(FLEET_CLIENTS, "fast"))
    batch = run_population(
        cacheless_spec(FLEET_CLIENTS, "batch"),
        manifest=str(out / "batch_fleet_manifest.json"),
    )
    check_rollups(batch, per_client, failures)


def cached_spec(engine: str) -> PopulationSpec:
    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=CACHED_SIZE,
        offset=CACHED_SIZE, noise=0.30, num_requests=300,
    )
    return PopulationSpec(
        name="batch-smoke-cached",
        base=base,
        seed=45,
        engine=engine,
        segments=(SegmentSpec("cost-based", CACHED_CLIENTS,
                              policy=Choice(("LIX", "PIX"))),),
    )


def gate_cached_fleet(failures: list) -> None:
    print(f"{CACHED_CLIENTS}-client LIX/PIX fleet exactness at CacheSize "
          f"{CACHED_SIZE} (batch vs per-client):")
    started = perf_counter()
    per_client = run_population(cached_spec("fast"))
    per_client_seconds = perf_counter() - started
    started = perf_counter()
    batch = run_population(cached_spec("batch"))
    batch_seconds = perf_counter() - started
    check_rollups(batch, per_client, failures)
    print(f"  per-client {per_client_seconds:.2f}s, batch "
          f"{batch_seconds:.2f}s -> "
          f"{per_client_seconds / batch_seconds:.2f}x (not gated)")


def outcome_fields(outcome) -> tuple:
    """Every measured field of a scalar-engine outcome, exactly."""
    response, counters = outcome.response, outcome.counters
    return (
        response.count, response._mean, response._m2, response.minimum,
        response.maximum, counters.hits, counters.misses,
        counters.per_disk_misses, outcome.warmup_requests,
        outcome.final_time, outcome.retunes,
    )


def fast_outcome(config, builds: BuildCache):
    """One client's run on the scalar fast engine, as its plan draws it."""
    layout, schedule = builds.layout_and_schedule(config)
    mapping = builds.mapping(config, layout)
    cache = config.build_policy(schedule, mapping,
                                config.build_distribution(), layout)
    trace = builds.trace(
        config, config.num_requests + _warmup_trace_allowance(config)
    )
    return FastEngine(
        schedule, mapping, layout, cache, config.think_time,
        retune_cost=config.retune_cost,
    ).run_trace(trace, warmup_requests=config.warmup_requests,
                extra_warmup=config.extra_warmup)


def column_spec() -> PopulationSpec:
    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"], delta=3, cache_size=COLUMN_SIZE,
        offset=COLUMN_SIZE, noise=0.30, num_requests=300,
    )
    return PopulationSpec(
        name="batch-smoke-columns", base=base, seed=47, engine="batch",
        segments=(SegmentSpec("clients", COLUMN_CLIENTS,
                              policy=Choice(("LIX", "PIX"))),),
    )


def irregular_columns_match() -> bool:
    """Three LRU columns on Figure 2's skewed ``A A B C`` program (page
    A's gaps alternate 1 and 3) equal their fast runs."""
    schedule = BroadcastSchedule([0, 0, 1, 2], label="skewed(AABC)")
    if schedule.regular_timing()[1].all():
        return False  # a closed form would hold: no fallback to test
    layout = DiskLayout((1, 2), (2, 1))
    mapping = LogicalPhysicalMapping(layout)
    pages = RandomStreams(5).stream("requests").integers(0, 3, (200, 3))
    engine = ColumnarEngine(
        schedule, make_batched_policy("lru", 3, 2, BatchedOracles()),
        mapping.physical_array()[None, :], np.array([0, 1, 1]),
        layout.num_disks, 2.0, access_range=3,
    )
    outcome = engine.run(pages, warmup_requests=20)
    return all(
        outcome_fields(outcome.to_engine_outcome(client)) == outcome_fields(
            FastEngine(
                schedule, mapping, layout,
                make_policy("LRU", 2, PolicyContext(num_disks=2)), 2.0,
            ).run_trace(RequestTrace(pages[:, client]), warmup_requests=20)
        )
        for client in range(3)
    )


def plan_state(config, engine: str) -> dict:
    """The exact result of ``config``'s one-client plan on ``engine``,
    wall clock removed."""
    state = result_state(execute_plan(RunPlan(config, engine=engine)))
    state.pop("wall_seconds")
    return state


def gate_columns(failures: list) -> None:
    print(f"{COLUMN_CLIENTS}-client LIX/PIX bucket pair at CacheSize "
          f"{COLUMN_SIZE}, column by column (batch vs fast):")
    spec = column_spec()
    builds = BuildCache()
    for segment, indices in spec.segment_ranges():
        for config, clients in client_groups(spec, segment, indices):
            # The fleet's bucket and a one-client batch plan run through
            # the same columnar entry.
            outcome, _, _ = run_columnar(
                config, [derive_seed(spec.seed, client) for client in clients],
                builds,
            )
            configs = [client_config(spec, segment, client)
                       for client in clients]
            equal = sum(
                outcome_fields(outcome.to_engine_outcome(column))
                == outcome_fields(fast_outcome(client, builds))
                for column, client in enumerate(configs)
            )
            check(equal == len(clients),
                  f"{config.policy}: {equal} of {len(clients)} columns "
                  "equal their fast runs", failures)
            plans = sum(
                plan_state(client, "batch") == plan_state(client, "fast")
                for client in configs
            )
            check(plans == len(clients),
                  f"{config.policy}: {plans} of {len(clients)} one-client "
                  "batch plans equal their fast plans", failures)
    check(irregular_columns_match(),
          "skewed-program columns equal their fast runs "
          "(next_arrival_batch fallback)", failures)


def gate_invariants(failures: list) -> None:
    print("strict monitors + profiler reconciliation on a columnar run:")
    monitors = MonitorSuite(mode="strict")
    profile = Profiler(enabled=True)
    sink = MemorySink()
    spec = PopulationSpec(
        name="batch-smoke-monitored",
        base=single_config(num_requests=300),
        seed=29,
        engine="batch",
        segments=(SegmentSpec("uniform", 8),),
    )
    result = run_fleet(spec, tracer=Tracer(sink, monitors), profile=profile)
    check(monitors.ok and monitors.runs == 1,
          f"strict invariants clean over {monitors.observed} records",
          failures)
    document = profile.snapshot()
    misses = document["counters"]["engine.batch.misses"]
    traced = sum(
        1 for record in sink.records if record.kind == "client.miss"
    )
    check(misses == traced,
          f"engine.batch.misses matches the trace ({misses} == "
          f"{traced} client.miss records)", failures)
    check(
        document["counters"]["requests.measured"]
        == result.overall.measured_requests,
        "profiled request counts match the rollup", failures,
    )


def gate_subsegmentation(failures: list) -> None:
    print("sub-segmented heterogeneous fleet (C=2, finite support):")
    monitors = MonitorSuite(mode="strict")
    spec = PopulationSpec(
        name="batch-smoke-subseg",
        base=single_config(num_requests=300, channels=2),
        seed=41,
        segments=(
            SegmentSpec("varied", 6,
                        cache_size=UniformInt(5, 30),
                        policy=Choice(("LRU", "LIX", "P"))),
            SegmentSpec("uniform", 4),
        ),
    )
    fleet = run_fleet(spec, tracer=Tracer(monitors))
    scalar = run_population(spec)
    fleet_doc = fleet.overall.snapshot()
    scalar_doc = scalar.overall.snapshot()
    fleet_doc.pop("total_wall_seconds")
    scalar_doc.pop("total_wall_seconds")
    check(fleet_doc == scalar_doc,
          "fleet fold byte-identical to per-client plans", failures)
    check(monitors.ok,
          f"strict invariants clean over {monitors.observed} records",
          failures)


def setup_config(preset: str, noise: float, index: int) -> ExperimentConfig:
    """A paper-scale noisy client (Figures 8-10: CacheSize = Offset = 500)."""
    return ExperimentConfig(
        disk_sizes=DISK_PRESETS[preset], delta=3, cache_size=500,
        offset=500, noise=noise, seed=derive_seed(7, index),
    )


def offset_swaps(config, layout):
    """The offset-only arrays, the noise coin's picks and their stream."""
    rng = config.build_streams().stream("noise")
    total = layout.total_pages
    physical = (np.arange(total, dtype=np.int64) - config.offset) % total
    inverse = np.empty(total, dtype=np.int64)
    inverse[physical] = np.arange(total, dtype=np.int64)
    selected = np.flatnonzero(rng.random(config.access_range) < config.noise)
    return physical, inverse, selected, rng


def mapping_matches_loop(config, layout) -> bool:
    """The built mapping, and its generator state, equal the scalar loop's."""
    rng = config.build_streams().stream("noise")
    mapping = LogicalPhysicalMapping(
        layout, config.offset, config.noise, rng, config.access_range
    )
    physical, inverse, selected, expected_rng = offset_swaps(config, layout)
    _scalar_swaps(physical, inverse, selected, layout, expected_rng)
    return (
        np.array_equal(mapping.physical_array(), physical)
        and np.array_equal(mapping._to_logical, inverse)
        and rng.bit_generator.state == expected_rng.bit_generator.state
    )


def trace_matches_searchsorted(config) -> bool:
    distribution = config.build_distribution()
    pages = distribution.sample(
        config.build_streams().stream("requests"), SETUP_REQUESTS
    )
    draws = config.build_streams().stream("requests").random(SETUP_REQUESTS)
    return np.array_equal(
        pages, np.searchsorted(distribution._cdf(), draws, side="right")
    )


def gate_setup_oracle(failures: list) -> None:
    grid = itertools.product(DISK_PRESETS, SETUP_NOISES,
                             range(SETUP_STREAMS))
    configs = [
        setup_config(preset, noise, index)
        for index, (preset, noise, _) in enumerate(grid)
    ]
    print(f"per-client set-up oracle over {len(configs)} paper-scale "
          "clients (decoded swaps vs the scalar loop, guide table vs "
          "searchsorted):")
    mappings = traces = fallbacks = 0
    for config in configs:
        layout = config.build_layout()
        mappings += mapping_matches_loop(config, layout)
        physical, inverse, selected, rng = offset_swaps(config, layout)
        fallbacks += not _decoded_swaps(physical, inverse, config.offset,
                                        selected, layout, rng)
        traces += trace_matches_searchsorted(config)
    check(mappings == len(configs),
          f"{mappings} of {len(configs)} mappings equal the scalar loop",
          failures)
    check(traces == len(configs),
          f"{traces} of {len(configs)} traces equal searchsorted", failures)
    print(f"  {fallbacks} of {len(configs)} mappings took the scalar "
          "fallback")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="batch-artifacts",
                        help="artifact directory")
    arguments = parser.parse_args()
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)

    failures: list = []
    gate_exactness(failures)
    gate_fleet_exactness(failures, out)
    gate_cached_fleet(failures)
    gate_columns(failures)
    gate_invariants(failures)
    gate_subsegmentation(failures)
    gate_setup_oracle(failures)

    if failures:
        print(f"batch smoke: {len(failures)} gate(s) failed",
              file=sys.stderr)
        return 1
    print("batch smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
