"""The columnar batch engine: exact on every path.

Single-client ``--engine batch`` runs and ``run_fleet`` fleets are
**byte-identical** to the scalar ``fast`` path — stats, samples, the
traced record stream, and the folded fleet rollup — and a fleet folds
the same whether or not a tracer, profiler or monitor watches it
(``src/repro/batch/fleet.py`` docstring).

Plus the rails around the engine: the plan fallback for unbatchable
policies, fleet fallback for heterogeneous segments, progress,
checkpoints and kept results on the fleet path itself, the page-range
check on trace matrices, monitor keying on interleaved per-client
records, and the process-pool clamp that stops small fleets from paying
for workers they cannot feed.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.exec import SweepCheckpoint, run_plans
from repro.exec.plan import derive_seed
from repro.exec.run import execute_plan, result_state
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.monitor import MonitorSuite
from repro.obs.profile import Profiler
from repro.obs.trace import MemorySink, Tracer
from repro.population import (
    Choice,
    Constant,
    PopulationSpec,
    SegmentSpec,
    Uniform,
    UniformInt,
    expand,
    run_population,
)
from repro.population.run import _MIN_CLIENTS_PER_WORKER, _effective_jobs


def config(**overrides):
    defaults = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=20,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=300,
        seed=13,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def homogeneous_spec(clients=8, *, name="batch-fleet", seed=29, **overrides):
    engine = overrides.pop("engine", "batch")
    return PopulationSpec(
        name=name,
        base=config(**overrides),
        seed=seed,
        engine=engine,
        segments=(SegmentSpec("uniform", clients),),
    )


def snapshot(result):
    """Aggregate snapshots with wall-clock fields removed."""
    documents = [result.overall.snapshot()] + [
        result.segments[name].snapshot() for name in sorted(result.segments)
    ]
    for document in documents:
        document.pop("total_wall_seconds")
    return documents


@pytest.fixture
def fleet_calls(monkeypatch):
    """What a fleet ran: columnar engine runs, the client seed of every
    column (fleet buckets and ``batch`` plans share one entry), and the
    index of every per-client plan."""
    from repro.batch import fleet as fleet_module
    from repro.batch.engine import ColumnarEngine
    from repro.exec import executor as executor_module
    from repro.exec import run as run_module

    calls = {"runs": 0, "columns": [], "plans": []}
    engine_run = ColumnarEngine.run
    run_columnar = run_module.run_columnar

    def counting_run(self, *args, **kwargs):
        calls["runs"] += 1
        return engine_run(self, *args, **kwargs)

    def recording_columns(config, seeds, *args, **kwargs):
        calls["columns"].extend(seeds)
        return run_columnar(config, seeds, *args, **kwargs)

    def recording(module):
        original = module.execute_plan

        def execute(plan, **kwargs):
            client = plan.config.label.rpartition("/client")[2]
            calls["plans"].append(int(client))
            return original(plan, **kwargs)
        monkeypatch.setattr(module, "execute_plan", execute)

    monkeypatch.setattr(ColumnarEngine, "run", counting_run)
    for module in (fleet_module, run_module):
        monkeypatch.setattr(module, "run_columnar", recording_columns)
    recording(fleet_module)
    recording(executor_module)
    return calls


def mixed_batch_spec():
    """13 clients: a constant segment, a finite-support one, a Uniform
    one (per-client plans) and an unbatchable LRU-K client."""
    return PopulationSpec(
        name="mixed-batch",
        base=ExperimentConfig(disk_sizes=(50, 200, 250), delta=3,
                              cache_size=10, policy="LIX",
                              num_requests=150, access_range=500),
        seed=3,
        engine="batch",
        segments=(
            SegmentSpec("constant", 4),
            SegmentSpec("varied", 6, cache_size=UniformInt(5, 12),
                        policy=Choice(("LIX", "PIX"))),
            SegmentSpec("noisy", 2, noise=Uniform(0.0, 0.3)),
            SegmentSpec("lone", 1, policy="LRU-K"),
        ),
    )


def per_client_fold(spec):
    """The rollup of one ``fast`` plan per client, through run_plans."""
    return snapshot(run_population(dataclasses.replace(spec, engine="fast")))


def result_states(results):
    """Each result's exact state, wall clock removed."""
    states = []
    for result in results:
        state = result_state(result)
        state.pop("wall_seconds")
        states.append((result.config, state))
    return states


# ---------------------------------------------------------------------------
# Byte-identity with the scalar fast engine
# ---------------------------------------------------------------------------

class TestSingleClientExactness:
    """``--engine batch`` on one plan is the fast engine, column-wise."""

    @pytest.mark.parametrize("policy", ["LRU", "P", "PIX", "L", "LIX"])
    def test_stats_identical_across_policies(self, policy):
        base = config(policy=policy)
        fast = run_experiment(base, engine="fast", collect_responses=True)
        batch = run_experiment(base, engine="batch", collect_responses=True)
        assert batch.mean_response_time == fast.mean_response_time
        assert batch.measured_requests == fast.measured_requests
        assert batch.warmup_requests == fast.warmup_requests
        assert batch.hit_rate == fast.hit_rate
        assert batch.samples == fast.samples

    @pytest.mark.parametrize("overrides", [
        dict(cache_size=1),
        dict(cache_size=8, policy="P"),
        dict(noise=0.3, seed=41),
        dict(drift_rotations=1.5),
        dict(think_time=2.5),
        dict(warmup_requests=40),
    ])
    def test_stats_identical_across_configs(self, overrides):
        base = config(**overrides)
        fast = run_experiment(base, engine="fast")
        batch = run_experiment(base, engine="batch")
        assert batch.mean_response_time == fast.mean_response_time
        assert batch.hit_rate == fast.hit_rate
        assert batch.measured_requests == fast.measured_requests

    def test_traced_record_streams_identical(self):
        # LIX runs columnar; LRU-K has no columnar form, so its batch
        # plan runs the scalar cache on the fast loop.
        for policy in ("LIX", "LRU-K"):
            streams = {}
            for engine in ("fast", "batch"):
                sink = MemorySink()
                run_experiment(config(num_requests=150, policy=policy),
                               engine=engine, tracer=Tracer(sink))
                streams[engine] = [
                    (r.time, r.kind, r.fields) for r in sink.records
                ]
            assert streams["batch"] == streams["fast"], policy
            assert len(streams["batch"]) > 0, policy

    def test_unbatchable_policy_falls_back_to_fast(self):
        # LRU-K has no columnar formulation; the batch plan engine must
        # silently delegate rather than fail.
        base = config(policy="LRU-K", num_requests=150)
        fast = run_experiment(base, engine="fast")
        batch = run_experiment(base, engine="batch")
        assert batch.mean_response_time == fast.mean_response_time


class TestFleetExactness:
    """Batch fleets fold identically to run_population."""

    def mixed_spec(self):
        return PopulationSpec(
            name="mixed-fleet",
            base=config(num_requests=200),
            seed=17,
            segments=(
                SegmentSpec("uniform", 5),
                SegmentSpec("tuned", 4,
                            cache_size=Constant(8), policy=Constant("P"),
                            noise=Constant(0.25)),
                SegmentSpec("varied", 3,
                            cache_size=UniformInt(5, 40),
                            policy=Choice(("LRU", "LIX"))),
                SegmentSpec("drifting", 2,
                            drift_rotations=Uniform(0.5, 1.5)),
            ),
        )

    def test_batch_fleet_matches_per_client_fold(self):
        from repro.batch.fleet import run_fleet

        spec = self.mixed_spec()
        scalar = run_population(spec)
        fleet = run_fleet(spec)
        assert snapshot(fleet) == snapshot(scalar)

    def test_run_population_dispatches_batch_engine(self):
        spec = homogeneous_spec(6, num_requests=200, engine="batch")
        via_population = run_population(spec)
        scalar = run_population(
            homogeneous_spec(6, num_requests=200, engine="fast")
        )
        assert snapshot(via_population) == snapshot(scalar)

    def test_plan_machinery_falls_back_to_plans(self, fleet_calls):
        # The name predates the one fleet path: keep_results no longer
        # leaves it.  One columnar run returns all 4 kept results.
        spec = homogeneous_spec(4, num_requests=200, engine="batch")
        kept = run_population(spec, keep_results=True)
        assert fleet_calls["runs"] == 1 and fleet_calls["plans"] == []
        assert kept.results is not None and len(kept.results) == 4
        assert snapshot(kept) == snapshot(run_population(spec))

    def test_multichannel_fleet_matches_per_client_fold(self):
        from repro.batch.fleet import run_fleet

        spec = PopulationSpec(
            name="tuned-fleet",
            base=config(num_requests=200, channels=4),
            seed=23,
            segments=(SegmentSpec("uniform", 6),),
        )
        fleet = run_fleet(spec)
        assert snapshot(fleet) == snapshot(run_population(spec))

    def test_finite_support_segments_avoid_plan_fallback(self, monkeypatch):
        # Choice/UniformInt segments sub-segment into homogeneous buckets
        # that all ride the columnar engine: the per-client plan fallback
        # must never fire, and the fold must stay byte-identical.
        from repro.batch import fleet as fleet_module

        calls = []
        original = fleet_module.execute_plan

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fleet_module, "execute_plan", counting)
        spec = PopulationSpec(
            name="subseg-fleet",
            base=config(num_requests=200, channels=2),
            seed=31,
            segments=(
                SegmentSpec("varied", 5,
                            cache_size=UniformInt(5, 30),
                            policy=Choice(("LRU", "LIX", "P"))),
            ),
        )
        result = fleet_module.run_fleet(spec)
        assert calls == []
        assert snapshot(result) == snapshot(run_population(spec))

    def test_continuous_segments_still_take_plan_fallback(self, monkeypatch):
        # Uniform has continuous support — no finite bucketing exists, so
        # those clients must run through per-client plans.
        from repro.batch import fleet as fleet_module

        calls = []
        original = fleet_module.execute_plan

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fleet_module, "execute_plan", counting)
        spec = PopulationSpec(
            name="drift-fleet",
            base=config(num_requests=200),
            seed=37,
            segments=(
                SegmentSpec("drifting", 3,
                            drift_rotations=Uniform(0.5, 1.5)),
            ),
        )
        result = fleet_module.run_fleet(spec)
        assert len(calls) == 3
        assert snapshot(result) == snapshot(run_population(spec))


    @pytest.mark.parametrize("channels", [1, 2])
    def test_cached_fleet_at_cache_scale(self, channels):
        # Figure 13/14-shaped clients (CacheSize = Offset, Noise 30%)
        # with caches big enough for long LIX chains and a P/PIX
        # minimum that moves on every eviction: every cost-based
        # policy's bucket must fold exactly as per-client fast runs.
        from repro.batch.fleet import run_fleet

        spec = PopulationSpec(
            name="cached-fleet",
            base=config(
                disk_sizes=(50, 250, 450), access_range=300,
                region_size=15, cache_size=100, offset=100, noise=0.3,
                num_requests=150, channels=channels,
            ),
            seed=43,
            segments=(
                SegmentSpec("cost-based", 8,
                            policy=Choice(("LIX", "PIX", "L", "P"))),
            ),
        )
        fleet = run_fleet(spec)
        assert snapshot(fleet) == snapshot(run_population(spec))


class TestFleetOptions:
    """progress, checkpoint and keep_results ride the one fleet path."""

    @pytest.mark.parametrize("option", ["progress", "checkpoint",
                                        "keep_results"])
    def test_options_stay_on_columnar_path(self, option, fleet_calls,
                                           tmp_path):
        mixed = mixed_batch_spec()
        spec = dataclasses.replace(mixed, segments=mixed.segments[:2])
        options = {
            "progress": dict(progress=lambda *_: None),
            "checkpoint": dict(checkpoint=SweepCheckpoint(
                str(tmp_path / "fleet.jsonl")
            )),
            "keep_results": dict(keep_results=True),
        }[option]
        result = run_population(spec, **options)
        varied = {(plan.config.cache_size, plan.config.policy)
                  for plan in expand(spec)[4:]}
        assert fleet_calls["plans"] == []
        assert fleet_calls["runs"] == 1 + len(varied)  # one per bucket
        assert snapshot(result) == per_client_fold(spec)

    def test_resume_from_an_executor_journal(self, fleet_calls, tmp_path):
        spec = mixed_batch_spec()
        path = str(tmp_path / "fleet.jsonl")
        # The first 6 clients journalled as run_plans journals them.
        run_plans(expand(spec)[:6], checkpoint=SweepCheckpoint(path))
        fleet_calls["plans"].clear()
        fleet_calls["columns"].clear()
        resumed = run_population(spec, checkpoint=SweepCheckpoint(path))
        assert sorted(fleet_calls["columns"]) == [
            derive_seed(spec.seed, client) for client in (6, 7, 8, 9)
        ]
        assert fleet_calls["plans"] == [10, 11, 12]
        assert len(SweepCheckpoint(path)) == 13
        assert snapshot(resumed) == per_client_fold(spec)

    def test_progress_fires_in_client_order(self):
        spec = mixed_batch_spec()
        calls = []
        result = run_population(
            spec,
            progress=lambda done, total, client: calls.append(
                (done, total, client.config.label)
            ),
        )
        assert calls == [(i + 1, 13, plan.config.label)
                         for i, plan in enumerate(expand(spec))]
        assert snapshot(result) == per_client_fold(spec)

    def test_kept_results_equal_fast_plans(self):
        spec = mixed_batch_spec()
        kept = run_population(spec, keep_results=True).results
        fast = [execute_plan(dataclasses.replace(plan, engine="fast"))
                for plan in expand(spec)]
        assert result_states(kept) == result_states(fast)


class TestColumnarBuilders:
    """A policy without a columnar form is refused by name, not built,
    and one with a columnar form gets only the slots a client can
    fill."""

    @pytest.mark.parametrize("policy", ["LRU-K", "2Q"])
    def test_policy_without_columnar_form_rejected(self, policy):
        from repro.batch.engine import build_columnar_engine
        from repro.cache.batched import BatchedOracles, make_batched_policy
        from repro.exec.build import BuildCache

        base = config(policy=policy)
        layout, schedule = BuildCache().layout_and_schedule(base)
        physical = base.build_mapping(layout).physical_array()[None, :]
        message = f"{policy}.*columnar.*L, LIX, LRU, P, PIX"
        with pytest.raises(ConfigurationError, match=message):
            build_columnar_engine(base, schedule, layout, physical, 2)
        with pytest.raises(ConfigurationError, match=message):
            make_batched_policy(policy, 2, 20, BatchedOracles())

    @pytest.mark.parametrize("policy", ["LRU", "P", "PIX", "LIX", "L"])
    def test_slots_clamped_to_access_range(self, policy):
        # A client requests at most access_range distinct pages, so a
        # CacheSize of 5,000 needs 100 slots; unclamped, 3 LIX clients
        # took 15,009 link nodes.
        from repro.batch.engine import build_columnar_engine
        from repro.exec.build import BuildCache

        oversized = config(policy=policy, cache_size=5_000, seed=7,
                           warmup_requests=50)  # access_range=100
        layout, schedule = BuildCache().layout_and_schedule(oversized)
        physical = oversized.build_mapping(layout).physical_array()[None, :]
        engine = build_columnar_engine(oversized, schedule, layout,
                                       physical, 3)
        assert engine.policy.slots.shape == (3, 100)
        batch = run_experiment(oversized, engine="batch")
        fast = run_experiment(oversized, engine="fast")
        assert result_states([batch]) == result_states([fast])
        assert round(batch.mean_response_time, 2) == 27.73


class TestPageRange:
    """Trace page ids outside ``[0, AccessRange)`` fail fast.

    Page -1 is the empty-slot marker: unchecked, it "hits" an empty
    slot and yields a response of 0.0.  Ids at or past the access range
    would wrap through the mapping or the page→slot index.
    """

    @pytest.mark.parametrize("policy", ["LRU", "LIX"])
    @pytest.mark.parametrize("bad", [-1, 100])
    def test_out_of_range_page_rejected(self, policy, bad):
        import numpy as np

        from repro.batch.engine import build_columnar_engine
        from repro.errors import ConfigurationError
        from repro.exec.build import BuildCache

        base = config(policy=policy)  # access_range=100
        layout, schedule = BuildCache().layout_and_schedule(base)
        physical = base.build_mapping(layout).physical_array()[None, :]
        engine = build_columnar_engine(base, schedule, layout, physical, 2)
        pages = np.arange(120, dtype=np.int64).reshape(60, 2) % 100
        engine.run(pages, warmup_requests=0)
        pages[30, 1] = bad
        # The whole matrix, and blocks of it with row 30 in the second
        # of three.
        for trace in (pages, np.split(pages, [17, 40])):
            engine = build_columnar_engine(base, schedule, layout,
                                           physical, 2)
            with pytest.raises(ConfigurationError,
                               match=rf"trace requests page {bad}; page "
                                     r"ids must lie in \[0, 100\)"):
                engine.run(trace, warmup_requests=0)

    def test_matrix_narrower_than_access_range_rejected(self):
        from repro.batch.engine import build_columnar_engine
        from repro.errors import ConfigurationError
        from repro.exec.build import BuildCache

        base = config()  # access_range=100
        layout, schedule = BuildCache().layout_and_schedule(base)
        physical = base.build_mapping(layout).physical_array()[None, :99]
        with pytest.raises(ConfigurationError,
                           match="99 columns.*access_range 100"):
            build_columnar_engine(base, schedule, layout, physical, 2)


class TestBoundedMemory:
    def test_fleet_memory_does_not_grow_with_trace_length(self):
        # The trace reaches the engine a block at a time; a whole
        # (steps, clients) matrix grew the peak by about 14 MB here.
        import tracemalloc

        from repro.exec.build import BuildCache
        from repro.exec.run import run_columnar

        def traced_peak(num_requests):
            cacheless = config(cache_size=1, policy="LRU",
                               num_requests=num_requests)
            builds = BuildCache()
            builds.layout_and_schedule(cacheless)
            tracemalloc.start()
            try:
                run_columnar(cacheless, range(200), builds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(10_000) - traced_peak(1_000) < 2 ** 20


class TestKernelStatistical:
    """Cache-less fleets at the phase-table kernel's old test scale.

    The kernel these tests once held within 6 sigma of the columnar
    engine is gone; the batch fleet now runs the columnar engine and
    must equal the per-client fold exactly.
    """

    KERNEL = dict(cache_size=1, policy="LRU", think_time=2.0,
                  num_requests=400)

    def check_exact(self, channels):
        from repro.batch.fleet import run_fleet

        spec = homogeneous_spec(200, channels=channels, **self.KERNEL)
        fleet = run_fleet(spec)
        per_client = run_population(homogeneous_spec(
            200, channels=channels, engine="fast", **self.KERNEL
        ))
        assert fleet.overall.clients == per_client.overall.clients == 200
        assert fleet.overall.measured_requests == \
            per_client.overall.measured_requests
        assert snapshot(fleet) == snapshot(per_client)

    def test_kernel_matches_columnar_within_sampling_error(self):
        self.check_exact(1)

    def test_kernel_matches_columnar_multichannel(self):
        self.check_exact(4)


# ---------------------------------------------------------------------------
# Observability: monitors, profiling, tier reconciliation
# ---------------------------------------------------------------------------

class TestBatchObservability:
    CACHELESS = dict(cache_size=1, policy="LRU", think_time=2.0,
                     num_requests=200)

    @pytest.mark.parametrize("channels", [1, 4])
    def test_cacheless_fleet_exact_with_or_without_observers(self,
                                                             channels):
        # The rollup is the per-client fold, and attaching an observer
        # must not change it.
        spec = homogeneous_spec(50, channels=channels, **self.CACHELESS)
        runs = {
            "bare": run_population(spec),
            "profiled": run_population(spec,
                                       profile=Profiler(enabled=True)),
            "traced": run_population(spec, tracer=Tracer(MemorySink())),
            "monitored": run_population(
                spec, tracer=Tracer(MonitorSuite(mode="strict"))
            ),
        }
        per_client = run_population(homogeneous_spec(
            50, channels=channels, engine="fast", **self.CACHELESS
        ))
        for name, result in runs.items():
            assert snapshot(result) == snapshot(per_client), name

    def test_strict_monitors_pass_on_interleaved_fleet(self):
        from repro.batch.fleet import run_fleet

        monitors = MonitorSuite(mode="strict")
        result = run_fleet(homogeneous_spec(5, num_requests=200),
                           tracer=Tracer(monitors))
        assert result.num_clients == 5
        assert monitors.ok
        assert monitors.runs == 1
        assert monitors.observed > 0

    def test_strict_monitors_pass_with_caller_tracer(self):
        from repro.batch.fleet import run_fleet

        sink = MemorySink(capacity=50_000)
        monitors = MonitorSuite(mode="strict")
        run_fleet(homogeneous_spec(3, num_requests=150),
                  tracer=Tracer(sink, monitors))
        assert monitors.ok
        labels = {
            record.fields.get("client") for record in sink.records
        }
        assert len(labels) == 3  # every record carries its client

    def test_strict_monitors_check_per_client_fallback_plans(self):
        # A ``Uniform`` field sends its segment's clients to per-client
        # ``fast`` plans, whose run bracket reaches the fleet tracer's
        # suite through the client-label sink: one columnar run plus
        # one run per fallback client.
        spec = PopulationSpec(
            name="monitored-fallback",
            base=config(num_requests=200),
            seed=29,
            engine="batch",
            segments=(
                SegmentSpec("steady", 3),
                SegmentSpec("noisy", 2, noise=Uniform(0.0, 0.3)),
            ),
        )
        sink = MemorySink()
        monitors = MonitorSuite(mode="strict")
        monitored = run_population(spec, tracer=Tracer(sink, monitors))
        assert monitors.ok
        assert monitors.runs == 1 + 2
        assert monitors.observed == len(sink) > 0
        assert snapshot(monitored) == snapshot(run_population(spec))

    def test_profiled_misses_match_traced_miss_records(self):
        from repro.batch.fleet import run_fleet

        spec = homogeneous_spec(4, num_requests=200)
        profile = Profiler(enabled=True)
        result = run_fleet(spec, profile=profile)
        sink = MemorySink()
        run_fleet(spec, tracer=Tracer(sink))
        misses = sum(
            1 for record in sink.records if record.kind == "client.miss"
        )
        counters = profile.snapshot()["counters"]
        assert misses > 0
        assert counters["engine.batch.misses"] == misses
        assert counters["requests.measured"] == \
            result.overall.measured_requests


# ---------------------------------------------------------------------------
# Satellite: the process-pool clamp
# ---------------------------------------------------------------------------

class TestEffectiveJobs:
    def test_small_fleet_degrades_to_serial(self):
        # The 0.86x BENCH record: 50 clients over 4 workers lost to
        # fork overhead.  Below one worker per _MIN_CLIENTS_PER_WORKER
        # clients the pool must shrink.
        assert _effective_jobs(4, 50) == 1

    def test_large_fleet_keeps_requested_workers(self):
        import repro.exec.executor as executor

        wanted = min(4, executor.usable_cores())
        assert _effective_jobs(wanted,
                               8 * _MIN_CLIENTS_PER_WORKER) == wanted

    def test_serial_requests_stay_serial(self):
        assert _effective_jobs(1, 10_000) == 1

    def test_clamp_scales_with_density(self):
        assert _effective_jobs(16, 3 * _MIN_CLIENTS_PER_WORKER) <= 3
