"""Parallel determinism: executors must be answer-invariant.

The contract under test (ISSUE 3, ``docs/ARCHITECTURE.md``): a sweep's
per-point means, samples, metrics snapshots, and manifests (minus
wall-clock fields) are byte-identical whichever executor runs it and
however many workers it uses.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    SweepCheckpoint,
    plan_sweep,
    resolve_executor,
    usable_cores,
)
from repro.exec import executor as executor_module
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import sweep_results
from repro.obs.manifest import build_sweep_manifest, strip_wall_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemorySink, Tracer


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


def small_grid():
    return [
        small_config(delta=delta, noise=noise)
        for delta in (1, 3)
        for noise in (0.0, 0.45)
    ]


def canonical(manifest):
    """Manifest → canonical JSON with wall-clock fields removed."""
    return json.dumps(strip_wall_clock(manifest), sort_keys=True)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_matches_serial(self, jobs):
        plans = plan_sweep(small_grid(), collect_responses=True)
        serial = SerialExecutor().run(plans)
        parallel = ParallelExecutor(jobs=jobs).run(plans)
        assert [r.mean_response_time for r in serial] == [
            r.mean_response_time for r in parallel
        ]
        assert [r.samples for r in serial] == [r.samples for r in parallel]
        assert [r.response_stats._m2 for r in serial] == [
            r.response_stats._m2 for r in parallel
        ]
        assert canonical(build_sweep_manifest(serial)) == canonical(
            build_sweep_manifest(parallel)
        )

    def test_sweep_manifest_independent_of_jobs(self, tmp_path,
                                                monkeypatch):
        # Two usable cores, so jobs=2 really pools even on a one-core
        # host: a pooled sweep keeps no build cache, and the manifest
        # must not depend on whether the executor kept one.
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
        configs = small_grid()
        manifests = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.json"
            sweep_results(configs, jobs=jobs, manifest=os.fspath(path))
            manifests.append(canonical(json.loads(path.read_text())))
        assert manifests[0] == manifests[1]

    def test_sweep_results_jobs_parameter(self):
        configs = small_grid()
        serial = sweep_results(configs)
        parallel = sweep_results(configs, jobs=2)
        assert [r.mean_response_time for r in serial] == [
            r.mean_response_time for r in parallel
        ]

    def test_metrics_fold_identically(self):
        configs = small_grid()
        serial_metrics = MetricsRegistry()
        parallel_metrics = MetricsRegistry()
        sweep_results(configs, metrics=serial_metrics)
        sweep_results(configs, metrics=parallel_metrics, jobs=3)
        assert serial_metrics.snapshot() == parallel_metrics.snapshot()

    def test_progress_fires_in_plan_order(self):
        configs = small_grid()
        seen = []
        sweep_results(
            configs,
            jobs=2,
            progress=lambda done, total, result: seen.append(
                (done, total, result.config.delta, result.config.noise)
            ),
        )
        expected = [
            (index + 1, len(configs), config.delta, config.noise)
            for index, config in enumerate(configs)
        ]
        assert seen == expected

    def test_resolve_executor(self):
        assert isinstance(resolve_executor(1), SerialExecutor)
        assert isinstance(resolve_executor(4), ParallelExecutor)
        assert resolve_executor(4).jobs == 4
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)

    @settings(max_examples=5, deadline=None)
    @given(
        jobs=st.integers(min_value=1, max_value=4),
        deltas=st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=1, max_size=4, unique=True,
        ),
        seed=st.integers(min_value=1, max_value=2**16),
    )
    def test_property_any_grid_any_worker_count(self, jobs, deltas, seed):
        configs = [
            small_config(delta=delta, seed=seed, num_requests=150)
            for delta in deltas
        ]
        plans = plan_sweep(configs, collect_responses=True)
        serial = SerialExecutor().run(plans)
        parallel = ParallelExecutor(jobs=jobs).run(plans)
        assert [r.mean_response_time for r in serial] == [
            r.mean_response_time for r in parallel
        ]
        assert [r.samples for r in serial] == [r.samples for r in parallel]


class TestCoreClamp:
    """The 1-core pessimization fix: jobs never exceed usable cores."""

    def test_usable_cores_is_positive(self):
        assert usable_cores() >= 1

    def test_effective_jobs_clamps_to_usable_cores(self, monkeypatch):
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
        assert ParallelExecutor(jobs=16).effective_jobs() == 2
        assert ParallelExecutor(jobs=2).effective_jobs() == 2
        assert ParallelExecutor(jobs=1).effective_jobs() == 1

    def test_single_core_host_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 1)

        def forbidden_pool(*args, **kwargs):
            raise AssertionError("pool created on a single-core host")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", forbidden_pool
        )
        plans = plan_sweep(small_grid(), collect_responses=True)
        results = ParallelExecutor(jobs=4).run(plans)
        reference = SerialExecutor().run(plans)
        assert [r.samples for r in results] == [
            r.samples for r in reference
        ]

    def test_oversubscribed_jobs_use_clamped_worker_count(self, monkeypatch):
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
        seen = {}
        real_pool = executor_module.ProcessPoolExecutor

        class SpyPool(real_pool):
            def __init__(self, max_workers=None, **kwargs):
                seen["max_workers"] = max_workers
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
        plans = plan_sweep(small_grid())
        ParallelExecutor(jobs=16).run(plans)
        assert seen["max_workers"] == 2


class TestTracerFallback:
    def test_enabled_tracer_runs_serially_with_identical_results(self):
        configs = small_grid()[:2]
        sink = MemorySink()
        tracer = Tracer(sink)
        traced = sweep_results(configs, tracer=tracer, jobs=4)
        plain = sweep_results(configs)
        assert [r.mean_response_time for r in traced] == [
            r.mean_response_time for r in plain
        ]
        assert len(sink) > 0  # records landed in the in-process sink

    def test_cross_engine_equivalence_with_tracer(self):
        config = small_config(num_requests=200)
        fast_sink, process_sink = MemorySink(), MemorySink()
        fast = sweep_results(
            [config], engine="fast", tracer=Tracer(fast_sink), jobs=2,
            collect_responses=True,
        )[0]
        process = sweep_results(
            [config], engine="process", tracer=Tracer(process_sink), jobs=2,
            collect_responses=True,
        )[0]
        assert fast.samples == process.samples
        assert fast.hit_rate == process.hit_rate
        # Both engines emitted per-request client records in sim order.
        fast_hits = [
            r for r in fast_sink.records if r.kind.startswith("client.")
        ]
        process_hits = [
            r for r in process_sink.records if r.kind.startswith("client.")
        ]
        assert [r.time for r in fast_hits] == sorted(
            r.time for r in fast_hits
        )
        assert len(process_hits) >= len(fast_hits)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_exactly(self, tmp_path):
        configs = small_grid()
        path = os.fspath(tmp_path / "sweep.jsonl")
        first = SweepCheckpoint(path)
        SerialExecutor().run(plan_sweep(configs[:2]), checkpoint=first)
        assert len(first) == 2

        resumed = SweepCheckpoint(path)
        assert resumed.resumed == 2
        results = ParallelExecutor(jobs=2).run(
            plan_sweep(configs), checkpoint=resumed
        )
        reference = SerialExecutor().run(plan_sweep(configs))
        assert [r.mean_response_time for r in results] == [
            r.mean_response_time for r in reference
        ]
        assert [r.response_stats._m2 for r in results] == [
            r.response_stats._m2 for r in reference
        ]
        assert len(resumed) == len(configs)

    def test_journal_survives_grid_reordering(self, tmp_path):
        configs = small_grid()
        path = os.fspath(tmp_path / "sweep.jsonl")
        checkpoint = SweepCheckpoint(path)
        SerialExecutor().run(plan_sweep(configs), checkpoint=checkpoint)

        shuffled = list(reversed(configs))
        reopened = SweepCheckpoint(path)
        results = SerialExecutor().run(
            plan_sweep(shuffled), checkpoint=reopened
        )
        reference = SerialExecutor().run(plan_sweep(shuffled))
        assert [r.mean_response_time for r in results] == [
            r.mean_response_time for r in reference
        ]
        # Everything came from the journal: no new entries were added.
        assert len(reopened) == len(configs)

    def test_torn_journal_line_names_path_and_line(self, tmp_path):
        configs = small_grid()[:2]
        path = os.fspath(tmp_path / "sweep.jsonl")
        SerialExecutor().run(
            plan_sweep(configs), checkpoint=SweepCheckpoint(path)
        )
        with open(path) as handle:
            text = handle.read()
        # Cut the second entry mid-line, as a killed writer would.
        first_end = text.index("\n") + 1
        with open(path, "w") as handle:
            handle.write(text[:first_end + (len(text) - first_end) // 2])
        with pytest.raises(ConfigurationError, match=r"sweep\.jsonl:2: "):
            SweepCheckpoint(path)

    def test_checkpoint_preserves_samples(self, tmp_path):
        config = small_config(num_requests=150)
        path = os.fspath(tmp_path / "one.jsonl")
        checkpoint = SweepCheckpoint(path)
        plans = plan_sweep([config], collect_responses=True)
        original = SerialExecutor().run(plans, checkpoint=checkpoint)[0]
        replayed = SweepCheckpoint(path).lookup(plans[0])
        assert replayed is not None
        assert replayed.samples == original.samples
        assert replayed.mean_response_time == original.mean_response_time
