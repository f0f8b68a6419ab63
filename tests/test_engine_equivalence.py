"""Integration: the fast engine and the process engine must agree.

The strongest correctness check in the suite: both engines consume the
same pre-drawn trace through the same policy and must produce identical
response times for every single request, across policies and parameter
corners (noise, offset, padding slots, flat and skewed layouts).
"""

import random

import pytest

from repro.cache.base import PolicyContext
from repro.cache.lru import LRUPolicy
from repro.core.chunks import EMPTY_SLOT
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.exec import RunPlan, execute_plan
from repro.exec.run import result_state
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import FastEngine
from repro.experiments.runner import _warmup_trace_allowance, run_experiment
from repro.experiments.simengine import run_single_client
from repro.obs.profile import Profiler
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace, generate_trace


def small_config(**overrides):
    base = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        noise=0.0,
        offset=0,
        access_range=100,
        region_size=10,
        num_requests=400,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_engines_agree(config):
    fast = run_experiment(config, engine="fast", collect_responses=True)
    process = run_experiment(config, engine="process", collect_responses=True)
    assert fast.samples == process.samples
    assert fast.hit_rate == process.hit_rate
    assert fast.access_locations == process.access_locations


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["LRU", "L", "LIX", "P", "PIX", "2Q"])
    def test_policies(self, policy):
        assert_engines_agree(small_config(policy=policy))

    def test_no_cache(self):
        assert_engines_agree(small_config(cache_size=1, policy="LRU"))

    def test_with_noise_and_offset(self):
        assert_engines_agree(small_config(noise=0.45, offset=50, seed=23))

    def test_flat_broadcast(self):
        assert_engines_agree(small_config(delta=0))

    def test_layout_with_padding_slots(self):
        # 3 pages on a 2x disk forces a padded chunk.
        assert_engines_agree(
            small_config(
                disk_sizes=(3, 7),
                delta=1,
                access_range=10,
                region_size=2,
                cache_size=3,
                offset=0,
            )
        )

    def test_zero_think_time(self):
        assert_engines_agree(small_config(think_time=0.0))

    def test_fractional_think_time(self):
        assert_engines_agree(small_config(think_time=1.7))

    def test_high_delta(self):
        assert_engines_agree(small_config(delta=7))

    def test_two_disk_layout(self):
        assert_engines_agree(
            small_config(disk_sizes=(90, 410), delta=4, offset=50)
        )


def assert_exact_states_agree(config):
    """Every field of ``result_state`` but the wall time — Welford count,
    mean, M2 and extrema, access locations, retunes — equal across all
    four engines."""
    states = {}
    for engine in ("fast", "fast-reference", "process", "batch"):
        state = result_state(run_experiment(config, engine=engine))
        del state["wall_seconds"]
        states[engine] = state
    for engine, state in states.items():
        assert state == states["fast"], engine


class TestExactResultState:
    @pytest.mark.parametrize("variant", [
        {},
        {"noise": 0.3, "offset": 20},
        {"channels": 2},
    ], ids=["plain", "noise-offset", "two-channels"])
    @pytest.mark.parametrize("policy", ["LRU", "L", "LIX", "P", "PIX"])
    def test_policies(self, policy, variant):
        assert_exact_states_agree(small_config(policy=policy, **variant))

    def test_no_cache(self):
        assert_exact_states_agree(small_config(cache_size=1, policy="LRU"))


# Irregular spacing for every page (no count divides the period
# evenly in an arithmetic progression), so the fast engine's fixed-gap
# shortcut declines and misses go through bisection — the path §2.2
# programs never reach.
IRREGULAR_SLOTS = [
    0, 1, 0, 2, 0, EMPTY_SLOT, 1, 3, 2, 0, 3, EMPTY_SLOT, 1, 2,
]


class TestOptimizedPathCrossValidation:
    """The optimized timing paths vs the process engine."""

    def test_irregular_vs_process_engine(self):
        schedule = BroadcastSchedule(IRREGULAR_SLOTS)
        layout = DiskLayout.flat(4)
        rng = random.Random(3)
        trace = RequestTrace.from_pages(
            [rng.randrange(4) for _ in range(300)]
        )
        profile = Profiler()
        fast = FastEngine(
            schedule,
            LogicalPhysicalMapping(layout),
            layout,
            LRUPolicy(2, PolicyContext()),
            think_time=0.7,
            profile=profile,
        ).run_trace(trace, collect_responses=True)
        process = run_single_client(
            schedule=BroadcastSchedule(IRREGULAR_SLOTS),
            layout=layout,
            mapping=LogicalPhysicalMapping(layout),
            cache=LRUPolicy(2, PolicyContext()),
            trace=trace,
            think_time=0.7,
            collect_responses=True,
        )
        assert fast.samples == process.samples
        assert fast.counters.hits == process.counters.hits
        assert fast.final_time == process.final_time
        # No page has a fixed gap, so every miss took the bisection.
        assert all(
            schedule.fixed_gap(page) is None for page in schedule.pages
        )
        assert profile.counters["engine.fast.misses"] > 0

    def test_fast_reference_plan_engine_agrees(self):
        config = small_config(num_requests=300)
        fast = execute_plan(RunPlan(config, collect_responses=True))
        reference = execute_plan(
            RunPlan(config, engine="fast-reference", collect_responses=True)
        )
        assert fast.samples == reference.samples
        assert fast.mean_response_time == reference.mean_response_time
        assert fast.hit_rate == reference.hit_rate


def _build_run_inputs(config):
    layout = config.build_layout()
    schedule = config.build_schedule(layout)
    streams = config.build_streams()
    mapping = config.build_mapping(layout, streams)
    distribution = config.build_distribution()
    cache = config.build_policy(schedule, mapping, distribution, layout)
    trace = generate_trace(
        distribution,
        config.num_requests + _warmup_trace_allowance(config),
        streams.stream("requests"),
    )
    return layout, schedule, mapping, cache, trace


class TestFinalTime:
    """The process engine must report the real simulator clock.

    Regression: ``run_experiment(engine="process")`` used to hard-code
    ``final_time=0.0`` instead of reading the kernel's clock.
    """

    def test_client_report_carries_final_time(self):
        config = small_config()
        layout, schedule, mapping, cache, trace = _build_run_inputs(config)
        report = run_single_client(
            schedule=schedule, layout=layout, mapping=mapping, cache=cache,
            trace=trace, think_time=config.think_time,
            extra_warmup=config.extra_warmup,
        )
        assert report.final_time > 0.0

    def test_final_time_matches_fast_engine(self):
        config = small_config()
        layout, schedule, mapping, cache, trace = _build_run_inputs(config)
        fast = FastEngine(
            schedule=schedule, mapping=mapping, layout=layout, cache=cache,
            think_time=config.think_time,
        )
        fast_outcome = fast.run_trace(
            trace, extra_warmup=config.extra_warmup
        )
        layout, schedule, mapping, cache, trace = _build_run_inputs(config)
        report = run_single_client(
            schedule=schedule, layout=layout, mapping=mapping, cache=cache,
            trace=trace, think_time=config.think_time,
            extra_warmup=config.extra_warmup,
        )
        assert report.final_time == fast_outcome.final_time

    def test_process_plan_results_agree_with_fast(self):
        # The plan path threads the clock through EngineOutcome for
        # both engines; the per-request agreement above makes every
        # derived measurement identical too.
        config = small_config()
        fast = execute_plan(RunPlan(config, engine="fast"))
        process = execute_plan(RunPlan(config, engine="process"))
        assert fast.mean_response_time == process.mean_response_time
        assert fast.hit_rate == process.hit_rate
