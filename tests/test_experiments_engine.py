"""Unit tests for the fast engine and the runner."""

import pytest

from repro.cache.base import PolicyContext
from repro.cache.lru import LRUPolicy
from repro.core.disks import DiskLayout
from repro.core.programs import _flat_program as flat_program, _multidisk_program as multidisk_program
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import FastEngine
from repro.experiments.runner import run_experiment, sweep_results
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


def make_engine(slots_layout, cache_capacity=1, think=2.0, offset=0):
    layout = slots_layout
    schedule = multidisk_program(layout) if not layout.is_flat else flat_program(
        layout.total_pages
    )
    mapping = LogicalPhysicalMapping(layout, offset=offset)
    cache = LRUPolicy(cache_capacity, PolicyContext())
    return FastEngine(schedule, mapping, layout, cache, think)


class TestFastEngineTiming:
    def test_single_request_wait(self):
        # Flat 4-page disk, think 1.0: request page 2 at t=1.0, completes 3.0.
        engine = make_engine(DiskLayout.flat(4), think=1.0)
        outcome = engine.run_trace(
            RequestTrace.from_pages([2]), warmup_requests=0,
            collect_responses=True,
        )
        assert outcome.samples == [2.0]
        assert engine.now == 3.0

    def test_hit_costs_nothing(self):
        engine = make_engine(DiskLayout.flat(4), cache_capacity=2, think=1.0)
        outcome = engine.run_trace(
            RequestTrace.from_pages([2, 2]), warmup_requests=0,
            collect_responses=True,
        )
        assert outcome.samples == [2.0, 0.0]
        assert outcome.counters.hits == 1

    def test_request_at_exact_completion_misses_that_broadcast(self):
        # Page 0 completes at 1.0 each cycle of 4. Think time 1.0 puts the
        # request exactly at a completion: must wait the full period.
        engine = make_engine(DiskLayout.flat(4), think=1.0)
        outcome = engine.run_trace(
            RequestTrace.from_pages([0]), warmup_requests=0,
            collect_responses=True,
        )
        assert outcome.samples == [4.0]

    def test_clock_accumulates_think_and_wait(self):
        engine = make_engine(DiskLayout.flat(3), think=0.5)
        engine.run_trace(RequestTrace.from_pages([0, 1]), warmup_requests=0)
        # t=0.5 -> page0 completes 1.0; t=1.5 -> page1 completes 2.0.
        assert engine.now == 2.0

    def test_multidisk_fast_page_waits_less_on_average(self):
        layout = DiskLayout.from_delta((1, 7), delta=6)
        engine = make_engine(layout, think=0.9)
        hot = engine.run_trace(
            RequestTrace.from_pages([0] * 200), warmup_requests=0
        )
        engine2 = make_engine(layout, think=0.9)
        cold = engine2.run_trace(
            RequestTrace.from_pages([7] * 200), warmup_requests=0
        )
        assert hot.response.mean < cold.response.mean

    def test_warmup_until_cache_full(self):
        engine = make_engine(DiskLayout.flat(8), cache_capacity=3, think=1.0)
        outcome = engine.run_trace(
            RequestTrace.from_pages([0, 1, 2, 3, 4]),
        )
        # First requests warm the cache (3 slots); measurement starts after.
        assert outcome.warmup_requests == 3
        assert outcome.measured_requests == 2

    def test_explicit_warmup_request_count(self):
        engine = make_engine(DiskLayout.flat(8), cache_capacity=3, think=1.0)
        outcome = engine.run_trace(
            RequestTrace.from_pages([0, 1, 2, 3, 4]), warmup_requests=1
        )
        assert outcome.warmup_requests == 1
        assert outcome.measured_requests == 4

    def test_negative_think_time_rejected(self):
        layout = DiskLayout.flat(4)
        with pytest.raises(ConfigurationError):
            FastEngine(
                flat_program(4),
                LogicalPhysicalMapping(layout),
                layout,
                LRUPolicy(1, PolicyContext()),
                think_time=-1.0,
            )

    def test_flat_disk_no_cache_mean_near_half_db(self):
        config = ExperimentConfig(
            disk_sizes=(500,), delta=0, cache_size=1,
            access_range=100, region_size=10, num_requests=4000, seed=3,
        )
        result = run_experiment(config)
        assert result.mean_response_time == pytest.approx(250.0, rel=0.05)


class TestRunner:
    def test_result_fields(self, mini_config):
        result = run_experiment(mini_config)
        assert result.mean_response_time > 0
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.measured_requests > 0
        assert result.schedule_period > 0
        assert 0.0 < result.schedule_utilisation <= 1.0
        assert sum(result.access_locations.values()) == pytest.approx(1.0)

    def test_summary_text(self, mini_config):
        text = run_experiment(mini_config).summary()
        assert "response=" in text and "hit_rate=" in text

    def test_deterministic_given_seed(self, mini_config):
        a = run_experiment(mini_config)
        b = run_experiment(mini_config)
        assert a.mean_response_time == b.mean_response_time

    def test_different_seed_changes_result(self, mini_config):
        a = run_experiment(mini_config)
        b = run_experiment(mini_config.with_(seed=99))
        assert a.mean_response_time != b.mean_response_time

    def test_unknown_engine_rejected(self, mini_config):
        with pytest.raises(ConfigurationError):
            run_experiment(mini_config, engine="quantum")

    def test_sweep_returns_metric_per_config(self, mini_config):
        configs = [mini_config.with_(delta=d) for d in (0, 2, 4)]
        results = sweep_results(configs)
        assert len(results) == 3
        assert all(result.mean_response_time > 0 for result in results)

    def test_sweep_results_full_objects(self, mini_config):
        results = sweep_results([mini_config])
        assert results[0].config is not None

    def test_collect_responses(self, mini_config):
        result = run_experiment(mini_config, collect_responses=True)
        assert result.samples
        assert len(result.samples) == result.measured_requests
