"""Parallel determinism: ``run_plans`` must be answer-invariant.

The contract under test (``docs/ARCHITECTURE.md``): a sweep's
per-point means, samples, metrics snapshots, and manifests (minus
wall-clock fields) are byte-identical however many workers run it,
and a failing plan or progress callback stops the pool.
"""

import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SweepCheckpoint, plan_sweep, run_plans, usable_cores
from repro.exec import executor as executor_module
from repro.exec.executor import InOrderResults
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import sweep_results
from repro.obs.manifest import build_sweep_manifest, strip_wall_clock
from repro.obs.trace import MemorySink, Tracer
from repro.population import PopulationSpec, SegmentSpec, run_population


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
        serial = run_plans(plans)
        parallel = run_plans(plans, jobs=jobs)
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
        # must not depend on whether the run kept one.
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

    def test_jobs_below_one_rejected(self):
        # Every entry point names the value instead of running serially,
        # a batch fleet too, though it never reaches run_plans.
        plans = plan_sweep(small_grid())
        batch = PopulationSpec(
            name="jobs", base=small_config(num_requests=50), seed=1,
            segments=(SegmentSpec("all", 2),), engine="batch",
        )
        for jobs in (0, -3, None):
            message = rf"^jobs must be >= 1, got {jobs}$"
            with pytest.raises(ConfigurationError, match=message):
                run_plans(plans, jobs=jobs)
            with pytest.raises(ConfigurationError, match=message):
                sweep_results(small_grid(), jobs=jobs)
            with pytest.raises(ConfigurationError, match=message):
                run_population(batch, jobs=jobs)

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
        serial = run_plans(plans)
        parallel = run_plans(plans, jobs=jobs)
        assert [r.mean_response_time for r in serial] == [
            r.mean_response_time for r in parallel
        ]
        assert [r.samples for r in serial] == [r.samples for r in parallel]


class TestCoreClamp:
    """The 1-core pessimization fix: jobs never exceed usable cores."""

    def test_usable_cores_is_positive(self):
        assert usable_cores() >= 1

    def test_single_core_host_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 1)

        def forbidden_pool(*args, **kwargs):
            raise AssertionError("pool created on a single-core host")

        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", forbidden_pool
        )
        plans = plan_sweep(small_grid(), collect_responses=True)
        results = run_plans(plans, jobs=4)
        reference = run_plans(plans)
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
        run_plans(plans, jobs=16)
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
        run_plans(plan_sweep(configs[:2]), checkpoint=first)
        assert len(first) == 2

        resumed = SweepCheckpoint(path)
        assert resumed.resumed == 2
        results = run_plans(
            plan_sweep(configs), jobs=2, checkpoint=resumed
        )
        reference = run_plans(plan_sweep(configs))
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
        run_plans(plan_sweep(configs), checkpoint=checkpoint)

        shuffled = list(reversed(configs))
        reopened = SweepCheckpoint(path)
        results = run_plans(plan_sweep(shuffled), checkpoint=reopened)
        reference = run_plans(plan_sweep(shuffled))
        assert [r.mean_response_time for r in results] == [
            r.mean_response_time for r in reference
        ]
        # Everything came from the journal: no new entries were added.
        assert len(reopened) == len(configs)

    def test_torn_journal_line_names_path_and_line(self, tmp_path):
        configs = small_grid()[:2]
        path = os.fspath(tmp_path / "sweep.jsonl")
        run_plans(plan_sweep(configs), checkpoint=SweepCheckpoint(path))
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
        original = run_plans(plans, checkpoint=checkpoint)[0]
        replayed = SweepCheckpoint(path).lookup(plans[0])
        assert replayed is not None
        assert replayed.samples == original.samples
        assert replayed.mean_response_time == original.mean_response_time


class TestInOrderResults:
    """The one helper behind ``run_plans``' and the fleet's contract."""

    class Journal:
        """A checkpoint stand-in: results journalled by grid position,
        and every record call in order."""

        def __init__(self, plans, journalled=()):
            self.positions = {plan: position
                              for position, plan in enumerate(plans)}
            self.journalled = dict(journalled)
            self.records = []

        def lookup(self, plan):
            return self.journalled.get(self.positions[plan])

        def record(self, plan, result):
            self.records.append((self.positions[plan], result))

    def test_out_of_order_completions_report_in_order_once(self):
        plans = plan_sweep(small_grid())
        calls = []
        book = InOrderResults(
            len(plans),
            progress=lambda done, total, result: calls.append(
                (done, total, result)
            ),
        )
        for position in (2, 0, 3, 1):
            book.complete(position, f"result{position}", plans[position])
        assert calls == [(i + 1, 4, f"result{i}") for i in range(4)]
        assert book.results == [f"result{i}" for i in range(4)]

    def test_journalled_positions_are_not_journalled_again(self):
        plans = plan_sweep(small_grid())
        journal = self.Journal(plans, {1: "kept1", 3: "kept3"})
        calls = []
        book = InOrderResults(len(plans), lambda *call: calls.append(call),
                              journal)
        resumed = [position for position, plan in enumerate(plans)
                   if book.resume(position, plan)]
        assert resumed == [1, 3]
        for position in (2, 0):
            book.complete(position, f"ran{position}", plans[position])
        assert journal.records == [(2, "ran2"), (0, "ran0")]
        assert book.results == ["ran0", "kept1", "ran2", "kept3"]
        assert [call[0] for call in calls] == [1, 2, 3, 4]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_every_executed_plan_is_journalled_once(self, jobs):
        plans = plan_sweep(small_grid())
        kept = run_plans(plans[:1])[0]
        journal = self.Journal(plans, {0: kept})
        results = run_plans(plans, jobs=jobs, checkpoint=journal)
        assert results[0] is kept
        records = sorted(journal.records, key=lambda record: record[0])
        assert [index for index, _ in records] == [1, 2, 3]
        assert all(result is results[index] for index, result in records)


def _fail_the_bad_plan(plan):
    """Worker stand-in: the plan labelled ``bad`` raises and ``quick``
    returns at once; every other plan, labelled with a marker path,
    takes a while and leaves that marker file."""
    if plan.config.label == "bad":
        raise RuntimeError("worker failed")
    if plan.config.label != "quick":
        time.sleep(0.2)
        Path(plan.config.label).touch()
    return plan.config.label


class TestFailureStopsThePool:
    """An error surfaces without running the rest of the grid first."""

    @pytest.mark.parametrize("failure", ["worker", "progress"])
    def test_failure_cancels_the_queued_plans(self, tmp_path, monkeypatch,
                                              failure):
        # Workers are forked, so they see the patched entry point.
        monkeypatch.setattr(executor_module, "_execute_in_worker",
                            _fail_the_bad_plan)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
        # The first plan fails in its worker, or its progress report
        # fails; 20 slow plans queue behind it.
        first = "bad" if failure == "worker" else "quick"
        labels = [first] + [str(tmp_path / f"good{i}") for i in range(20)]

        def progress(done, total, result):
            raise RuntimeError("progress failed")

        with pytest.raises(RuntimeError, match=f"{failure} failed"):
            run_plans(
                plan_sweep(small_config(label=label) for label in labels),
                jobs=2, progress=progress if failure == "progress" else None,
            )
        # Only the calls already handed to the two workers (running or
        # in the pool's call queue) may have run.
        assert len(list(tmp_path.glob("good*"))) <= 6

    def test_plans_finished_after_a_failure_are_journalled(
        self, tmp_path, monkeypatch
    ):
        # The plans already handed to the workers when the first plan
        # fails still run; the journal keeps them for a resumed sweep.
        monkeypatch.setattr(executor_module, "_execute_in_worker",
                            _fail_the_bad_plan)
        monkeypatch.setattr(executor_module, "usable_cores", lambda: 2)
        labels = ["bad"] + [str(tmp_path / f"good{i}") for i in range(20)]
        plans = plan_sweep(small_config(label=label) for label in labels)
        journal = TestInOrderResults.Journal(plans)
        with pytest.raises(RuntimeError, match="worker failed"):
            run_plans(plans, jobs=2, checkpoint=journal)
        ran = {str(path) for path in tmp_path.glob("good*")}
        assert ran
        assert {result for _position, result in journal.records} == ran
