"""Unit tests for the plan layer: RunPlan, seed derivation, build cache."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BuildCache,
    RunPlan,
    derive_seed,
    execute_plan,
    plan_sweep,
    structural_hash,
    structural_key,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.population import PopulationSpec, SegmentSpec, expand


def small_config(**overrides):
    base = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=300,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunPlan:
    def test_frozen_hashable_picklable(self):
        plan = RunPlan(small_config(), engine="fast")
        assert hash(plan) == hash(
            RunPlan(config=small_config(), engine="fast")
        )
        with pytest.raises(Exception):
            plan.engine = "process"
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.config == plan.config

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            RunPlan(small_config(), engine="quantum")

    def test_seed_is_config_seed(self):
        assert RunPlan(small_config(seed=99)).seed == 99

    def test_fingerprint_tracks_work_identity(self):
        base = RunPlan(small_config())
        assert base.fingerprint() != RunPlan(
            small_config(seed=12)
        ).fingerprint()
        assert base.fingerprint() != RunPlan(
            small_config(), engine="process"
        ).fingerprint()
        assert base.fingerprint() != RunPlan(
            small_config(), collect_responses=True
        ).fingerprint()


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(42, index) for index in range(32)]
        assert seeds == [derive_seed(42, index) for index in range(32)]
        assert len(set(seeds)) == 32
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_plan_sweep_default_keeps_config_seeds(self):
        configs = [small_config(seed=7), small_config(seed=9)]
        plans = plan_sweep(configs)
        assert [plan.seed for plan in plans] == [7, 9]


class TestBuildCache:
    def test_structural_key_ignores_client_parameters(self):
        a = small_config(noise=0.0, seed=1, cache_size=10)
        b = small_config(noise=0.45, seed=2, cache_size=100)
        assert structural_key(a) == structural_key(b)
        assert structural_hash(a) == structural_hash(b)

    def test_structural_hash_tracks_broadcast_structure(self):
        base = small_config()
        assert structural_hash(base) != structural_hash(
            small_config(delta=4)
        )
        assert structural_hash(base) != structural_hash(
            small_config(disk_sizes=(100, 400))
        )

    def test_cache_shares_layout_and_schedule(self):
        cache = BuildCache()
        layout_a, schedule_a = cache.layout_and_schedule(small_config())
        layout_b, schedule_b = cache.layout_and_schedule(
            small_config(noise=0.45)
        )
        assert layout_a is layout_b
        assert schedule_a is schedule_b
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1
        cache.layout_and_schedule(small_config(delta=4))
        assert cache.misses == 2 and len(cache) == 2

    def test_timing_structures_shared_across_sweep_points(self):
        # Sweep points sharing a broadcast structure build the schedule,
        # and with it the timing table, once: every point reads the same
        # read-only regular_timing() arrays.
        cache = BuildCache()
        configs = [small_config(noise=noise) for noise in (0.0, 0.15, 0.45)]
        for config in configs:
            execute_plan(RunPlan(config), builds=cache)
        assert cache.misses == 1 and cache.hits == 2 and len(cache) == 1
        assert cache.held()["schedules"] == 1
        tables = [
            cache.layout_and_schedule(config)[1].regular_timing()
            for config in configs
        ]
        residue, gap = tables[0]
        assert all(r is residue and g is gap for r, g in tables)
        assert gap.any()
        assert not residue.flags.writeable and not gap.flags.writeable
        execute_plan(RunPlan(small_config(noise=0.45)), builds=cache)
        # The repeated point reused the shared schedule and its table.
        assert cache.misses == 1
        _layout, schedule = cache.layout_and_schedule(configs[0])
        assert schedule.regular_timing()[1] is gap

    def test_cached_builds_do_not_change_results(self):
        # Consecutive points share a mapping when only Δ, the cache or
        # the policy changes, and a trace when only the broadcast, the
        # noise or the policy changes; both must read exactly as fresh
        # builds.
        configs = [
            small_config(noise=0.0),
            small_config(noise=0.0, delta=4),
            small_config(noise=0.15),
            small_config(noise=0.15, cache_size=20),
            small_config(noise=0.15, cache_size=20, policy="PIX"),
            small_config(noise=0.15, offset=50, cache_size=20),
            small_config(noise=0.45, offset=50, cache_size=20,
                         noise_over_full_database=True),
            small_config(noise=0.45, offset=50, cache_size=20),
            small_config(noise=0.45, offset=50, cache_size=20, seed=12),
            small_config(noise=0.45, offset=50, cache_size=20, seed=12,
                         delta=2),
            small_config(drift_rotations=1.0),
            small_config(drift_rotations=1.0, delta=2),
            small_config(drift_rotations=2.0, delta=2),
            small_config(warmup_requests=100),
            small_config(warmup_requests=100, noise=0.3),
            small_config(warmup_requests=200, noise=0.3),
        ]
        fresh = [
            execute_plan(RunPlan(config, collect_responses=True))
            for config in configs
        ]
        shared = BuildCache()
        cached = [
            execute_plan(RunPlan(config, collect_responses=True),
                         builds=shared)
            for config in configs
        ]
        assert shared.hits == 13
        assert shared.mapping_hits == 8 and shared.trace_hits == 10
        assert shared.mapping_hits + shared.mapping_misses == len(configs)
        assert shared.trace_hits + shared.trace_misses == len(configs)
        for a, b in zip(fresh, cached):
            assert a.mean_response_time == b.mean_response_time
            assert a.samples == b.samples
            assert a.hit_rate == b.hit_rate
            assert a.access_locations == b.access_locations
            assert a.warmup_requests == b.warmup_requests
            assert a.measured_requests == b.measured_requests
        held = shared.held()
        assert held["mappings"] == 1 and held["traces"] == 1

        # A fast-engine population derives a seed per client, so no
        # client reuses another's mapping or trace; the cache still
        # holds only the last one of each, and results match fresh
        # per-client builds.
        spec = PopulationSpec(
            name="distinct",
            base=small_config(noise=0.3, num_requests=100),
            seed=3,
            segments=(SegmentSpec("all", 6),),
            engine="fast",
        )
        builds = BuildCache()
        cached = [execute_plan(plan, builds=builds) for plan in expand(spec)]
        fresh = [execute_plan(plan) for plan in expand(spec)]
        assert len({plan.seed for plan in expand(spec)}) == 6
        assert [r.mean_response_time for r in cached] == [
            r.mean_response_time for r in fresh
        ]
        assert builds.mapping_hits == 0 and builds.trace_hits == 0
        held = builds.held()
        assert held["mappings"] <= 1 and held["traces"] <= 1


class TestExecutePlan:
    def test_matches_run_experiment(self):
        config = small_config()
        via_plan = execute_plan(RunPlan(config, collect_responses=True))
        via_runner = run_experiment(config, collect_responses=True)
        assert via_plan.mean_response_time == via_runner.mean_response_time
        assert via_plan.samples == via_runner.samples
        assert via_plan.access_locations == via_runner.access_locations
        assert via_plan.schedule_period == via_runner.schedule_period

    def test_result_is_picklable(self):
        result = execute_plan(RunPlan(small_config(), collect_responses=True))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.mean_response_time == result.mean_response_time
        assert clone.samples == result.samples
        assert clone.response_stats.count == result.response_stats.count
        assert clone.response_stats._m2 == result.response_stats._m2
