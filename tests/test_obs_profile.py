"""Hot-path profiling (repro.obs.profile).

Covers the accumulator mechanics (phases, counters, peaks, tiers), the
lifecycle errors, the metrics bridge, and the contracts the
observatory leans on: tier counts reconcile exactly with
``BroadcastSchedule.timing_stats`` on a real run, a profiled run is
byte-identical to an unprofiled one, and the profiler's engine counters
agree with the run's own trace records.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.exec import execute_plan, plan_for
from repro.experiments.runner import run_experiment, sweep_results
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    PROFILE_SCHEMA,
    TIER_NAMES,
    Profiler,
    record_profile_metrics,
)
from repro.obs.trace import MemorySink, Tracer


class TestPhases:
    def test_phase_times_accumulate(self):
        profile = Profiler()
        profile.start_phase("build")
        first = profile.stop_phase("build")
        profile.start_phase("build")
        second = profile.stop_phase("build")
        assert first >= 0.0 and second >= 0.0
        assert profile.phase_seconds["build"] == pytest.approx(
            first + second
        )

    def test_add_phase_folds_external_spans(self):
        profile = Profiler()
        profile.add_phase("run", 1.5)
        profile.add_phase("run", 0.5)
        assert profile.phase_seconds["run"] == pytest.approx(2.0)

    def test_reentrant_start_rejected(self):
        profile = Profiler()
        profile.start_phase("build")
        with pytest.raises(ConfigurationError, match="already running"):
            profile.start_phase("build")

    def test_stop_without_start_rejected(self):
        with pytest.raises(ConfigurationError, match="never started"):
            Profiler().stop_phase("run")

    def test_concurrent_distinct_phases_allowed(self):
        profile = Profiler()
        profile.start_phase("build")
        profile.start_phase("run")
        profile.stop_phase("run")
        profile.stop_phase("build")
        assert set(profile.phase_seconds) == {"build", "run"}


class TestCountersAndPeaks:
    def test_counters_accumulate(self):
        profile = Profiler()
        profile.count("plans")
        profile.count("plans", 3)
        assert profile.counters["plans"] == 4

    def test_peak_keeps_the_maximum(self):
        profile = Profiler()
        profile.peak("heap", 5)
        profile.peak("heap", 3)
        profile.peak("heap", 9)
        assert profile.peaks["heap"] == 9

    def test_tier_counts_fold_and_total(self):
        profile = Profiler()
        profile.add_tier_counts({"closed_form": 10, "bisect": 2})
        profile.add_tier_counts({"closed_form": 5, "bisect": 1})
        assert profile.tiers == {"closed_form": 15, "bisect": 3}
        assert profile.tier_total == 18

    def test_snapshot_shape(self):
        profile = Profiler()
        profile.add_phase("run", 0.25)
        profile.count("plans", 2)
        profile.peak("heap", 4)
        profile.add_tier_counts({"bisect": 7})
        snapshot = profile.snapshot()
        assert snapshot["schema"] == PROFILE_SCHEMA
        assert snapshot["phase_seconds"] == {"run": 0.25}
        assert snapshot["counters"] == {"plans": 2}
        assert snapshot["peaks"] == {"heap": 4}
        assert snapshot["tiers"]["bisect"] == 7

    def test_report_mentions_every_block(self):
        profile = Profiler()
        profile.add_phase("run", 1.0)
        profile.count("plans", 2)
        profile.peak("heap", 4)
        profile.add_tier_counts({"closed_form": 3})
        report = profile.report()
        for needle in ("phases", "timing tiers", "engine counters",
                       "peaks", "closed_form"):
            assert needle in report
        assert "(nothing recorded)" in Profiler().report()


class TestMetricsBridge:
    def test_record_profile_metrics_lands_under_profile_prefix(self):
        profile = Profiler()
        profile.count("plans", 4)
        profile.add_tier_counts({"closed_form": 9, "bisect": 1})
        metrics = MetricsRegistry()
        record_profile_metrics(metrics, profile)
        counters = metrics.snapshot()
        assert counters["profile.plans"] == 4
        assert counters["profile.tier.closed_form"] == 9
        assert counters["profile.tier.bisect"] == 1


class TestRunIntegration:
    def test_tiers_reconcile_with_engine_misses(self, mini_config):
        profile = Profiler()
        result = run_experiment(mini_config, profile=profile)
        measured_misses = round(
            (1.0 - result.hit_rate) * result.measured_requests
        )
        # Every miss resolves through exactly one next_arrival tier; the
        # counter also covers warm-up misses, so it dominates the
        # measured-window estimate.
        assert profile.tier_total == profile.counters["engine.fast.misses"]
        assert profile.counters["engine.fast.misses"] >= measured_misses
        assert profile.counters["plans"] == 1
        assert profile.counters["requests.measured"] == (
            result.measured_requests
        )
        assert set(profile.tiers) == set(TIER_NAMES)
        assert {"build", "run"} <= set(profile.phase_seconds)

    def test_profiled_run_is_byte_identical(self, mini_config):
        bare = run_experiment(mini_config)
        profiled = run_experiment(mini_config, profile=Profiler())
        assert profiled.mean_response_time == bare.mean_response_time
        assert profiled.hit_rate == bare.hit_rate
        assert profiled.response_stats.stddev == bare.response_stats.stddev

    def test_disabled_profiler_records_nothing(self, mini_config):
        profile = Profiler(enabled=False)
        run_experiment(mini_config, profile=profile)
        assert profile.phase_seconds == {}
        assert profile.counters == {}
        assert profile.tier_total == 0

    def test_sweep_accumulates_across_plans(self, mini_config):
        configs = [mini_config.with_(delta=d) for d in (0, 1)]
        profile = Profiler()
        results = sweep_results(configs, profile=profile)
        assert profile.counters["plans"] == 2
        assert profile.counters["requests.measured"] == sum(
            r.measured_requests for r in results
        )
        assert profile.tier_total == profile.counters["engine.fast.misses"]
        # The sweep wraps its fold in the aggregate phase even when
        # nothing is folded, so the phase list is stable.
        assert {"build", "run", "aggregate"} <= set(profile.phase_seconds)

    def test_sweep_manifest_embeds_reconciled_tiers(
        self, mini_config, tmp_path
    ):
        import json

        manifest_path = tmp_path / "sweep.json"
        profile = Profiler()
        sweep_results(
            [mini_config], profile=profile, manifest=str(manifest_path)
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["build_cache"]["queries"] == profile.snapshot()[
            "tiers"
        ]
        assert manifest["profile"]["counters"]["plans"] == 1
        assert "aggregate" in profile.phase_seconds


class TestOneLoop:
    """Observing a fast-engine run never changes the loop it runs."""

    #: Engine -> (its counter prefix, the tier every miss is booked to).
    ENGINES = {
        "fast": ("fast", "closed_form"),
        "fast-reference": ("reference", "bisect"),
    }

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_profiled_run_matches_bare_and_traced(
        self, mini_config, engine, channels
    ):
        name, tier = self.ENGINES[engine]
        plan = plan_for(
            mini_config.with_(channels=channels), engine=engine,
            collect_responses=True,
        )
        bare = execute_plan(plan)
        profile = Profiler()
        profiled = execute_plan(plan, profile=profile)
        sink = MemorySink()
        traced = execute_plan(plan, tracer=Tracer(sink))
        for result in (profiled, traced):
            assert result.samples == bare.samples
            assert result.access_locations == bare.access_locations
            assert result.retunes == bare.retunes

        # The counters booked after the loop are the trace's own counts.
        kinds = Counter(record.kind for record in sink.records)
        counters = profile.counters
        assert counters[f"engine.{name}.loop_iterations"] == (
            kinds["client.request"]
        )
        assert counters[f"engine.{name}.hits"] == kinds["client.hit"]
        assert counters[f"engine.{name}.misses"] == kinds["client.miss"]
        assert counters.get(f"engine.{name}.retunes", 0) == (
            kinds["client.retune"]
        )
        if channels > 1:
            assert kinds["client.retune"] > 0
        # Every miss is booked to exactly one tier: the closed form for
        # fast, bisection for fast-reference.
        assert profile.tier_total == counters[f"engine.{name}.misses"]
        assert profile.tiers[tier] == profile.tier_total
