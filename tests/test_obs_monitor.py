"""Invariant monitors (repro.obs.monitor).

The load-bearing assertions:

* each monitor flags exactly the synthetic breach built for it and
  stays silent on an honest stream;
* strict mode raises :class:`~repro.errors.MonitorError` from
  ``end_run()`` (never from ``write()``), record mode only collects;
* violations round-trip through their manifest serialisation;
* a strictly-monitored experiment run is byte-identical to an
  unmonitored one and passes on both fast engines;
* a suite is an ordinary sink of the run's tracer: every plan a run or
  sweep executes on an enabled tracer is checked, and a suite inside a
  disabled tracer sees nothing.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, MonitorError
from repro.experiments.runner import run_experiment, sweep_results
from repro.obs.manifest import build_manifest
from repro.obs.monitor import (
    CacheOccupancyMonitor,
    ClockMonotonicityMonitor,
    ConservationMonitor,
    FixedInterarrivalMonitor,
    MonitorContext,
    MonitorSuite,
    SchedulePeriodicityMonitor,
    Violation,
)
from repro.obs.trace import MemorySink, TraceRecord, Tracer


def record(kind, time, **fields):
    return TraceRecord(kind=kind, time=time, fields=fields)


def run_suite(records, context=None, factories=None, mode="record"):
    """Feed ``records`` through a one-run suite; return its violations."""
    suite = MonitorSuite(
        factories or (
            FixedInterarrivalMonitor,
            CacheOccupancyMonitor,
            ClockMonotonicityMonitor,
            ConservationMonitor,
            SchedulePeriodicityMonitor,
        ),
        mode=mode,
    )
    suite.begin_run(context or MonitorContext(label="unit"))
    for item in records:
        suite.write(item)
    return suite, suite.end_run()


class TestFixedInterarrival:
    def test_multiples_of_the_gap_pass(self, tiny_schedule):
        context = MonitorContext(schedule=tiny_schedule)
        page = 0
        gap = tiny_schedule.fixed_gap(page)[1]
        stream = [
            record("channel.deliver", float(t), page=page)
            for t in (gap, 2 * gap, 4 * gap, 7 * gap)  # skipped slots OK
        ]
        _, violations = run_suite(
            stream, context, factories=(FixedInterarrivalMonitor,)
        )
        assert violations == []

    def test_off_grid_gap_is_flagged(self, tiny_schedule):
        context = MonitorContext(schedule=tiny_schedule)
        page = 0
        gap = tiny_schedule.fixed_gap(page)[1]
        stream = [
            record("channel.deliver", float(gap), page=page),
            record("channel.deliver", float(gap) + gap / 2, page=page),
        ]
        _, violations = run_suite(
            stream, context, factories=(FixedInterarrivalMonitor,)
        )
        assert [v.invariant for v in violations] == ["fixed_gap_multiple"]

    def test_without_schedule_nothing_is_checked(self):
        stream = [
            record("channel.deliver", 1.0, page=0),
            record("channel.deliver", 1.7, page=0),
        ]
        _, violations = run_suite(
            stream, MonitorContext(), factories=(FixedInterarrivalMonitor,)
        )
        assert violations == []


class TestCacheOccupancy:
    def test_admissions_with_victims_stay_bounded(self):
        context = MonitorContext(cache_capacity=2)
        stream = [
            record("cache.admit", 1.0, page=1, victim=None),
            record("cache.admit", 2.0, page=2, victim=None),
            record("cache.admit", 3.0, page=3, victim=1),
            record("cache.evict", 3.0, page=1),
        ]
        _, violations = run_suite(
            stream, context, factories=(CacheOccupancyMonitor,)
        )
        assert violations == []

    def test_overflow_is_flagged(self):
        context = MonitorContext(cache_capacity=1)
        stream = [
            record("cache.admit", 1.0, page=1, victim=None),
            record("cache.admit", 2.0, page=2, victim=None),
        ]
        _, violations = run_suite(
            stream, context, factories=(CacheOccupancyMonitor,)
        )
        assert [v.invariant for v in violations] == ["occupancy_bound"]

    def test_rejection_is_not_an_admission(self):
        context = MonitorContext(cache_capacity=1)
        stream = [
            record("cache.admit", 1.0, page=1, victim=None),
            record("cache.admit", 2.0, page=2, victim=2),  # declined
        ]
        _, violations = run_suite(
            stream, context, factories=(CacheOccupancyMonitor,)
        )
        assert violations == []


class TestClockMonotonicity:
    def test_backwards_global_stream_is_flagged(self):
        stream = [
            record("sim.event", 2.0),
            record("sim.event", 1.0),
        ]
        _, violations = run_suite(
            stream, factories=(ClockMonotonicityMonitor,)
        )
        assert [v.invariant for v in violations] == ["monotonic_clock"]

    def test_clients_interleave_legitimately(self):
        stream = [
            record("client.request", 5.0, client="a"),
            record("client.request", 3.0, client="b"),
            record("client.request", 6.0, client="a"),
            record("client.request", 4.0, client="b"),
        ]
        _, violations = run_suite(
            stream, factories=(ClockMonotonicityMonitor,)
        )
        assert violations == []


class TestConservation:
    def test_balanced_counts_pass(self):
        stream = [
            record("client.request", 1.0),
            record("client.hit", 1.0, page=1),
            record("client.request", 2.0),
            record("client.miss", 2.0, page=2),
            record("client.wait", 3.0, page=2, wait=1.0),
        ]
        _, violations = run_suite(stream, factories=(ConservationMonitor,))
        assert violations == []

    def test_lost_request_is_flagged(self):
        stream = [
            record("client.request", 1.0),
            record("client.request", 2.0),
            record("client.hit", 2.0, page=1),
        ]
        _, violations = run_suite(stream, factories=(ConservationMonitor,))
        assert [v.invariant for v in violations] == ["request_conservation"]

    def test_final_wait_may_be_truncated(self):
        stream = [
            record("client.request", 1.0),
            record("client.miss", 1.0, page=1),
        ]
        _, violations = run_suite(stream, factories=(ConservationMonitor,))
        assert violations == []

    def test_double_wait_is_flagged(self):
        stream = [
            record("client.request", 1.0),
            record("client.miss", 1.0, page=1),
            record("client.wait", 2.0, page=1, wait=1.0),
            record("client.wait", 3.0, page=1, wait=1.0),
        ]
        _, violations = run_suite(stream, factories=(ConservationMonitor,))
        assert [v.invariant for v in violations] == ["wait_conservation"]


class TestSchedulePeriodicity:
    def test_correct_slot_contents_pass(self, tiny_schedule):
        context = MonitorContext(schedule=tiny_schedule)
        stream = [
            record("channel.deliver", float(slot + 1),
                   page=tiny_schedule.page_at(slot + 0.5))
            for slot in range(tiny_schedule.period)
        ]
        _, violations = run_suite(
            stream, context, factories=(SchedulePeriodicityMonitor,)
        )
        assert violations == []

    def test_wrong_page_in_slot_is_flagged(self, tiny_schedule):
        context = MonitorContext(schedule=tiny_schedule)
        honest = tiny_schedule.page_at(0.5)
        impostor = next(
            page for page in range(14) if page != honest
        )
        stream = [record("channel.deliver", 1.0, page=impostor)]
        _, violations = run_suite(
            stream, context, factories=(SchedulePeriodicityMonitor,)
        )
        assert [v.invariant for v in violations] == ["slot_consistency"]

    def test_fractional_completion_is_flagged(self, tiny_schedule):
        context = MonitorContext(schedule=tiny_schedule)
        stream = [record("channel.deliver", 1.25, page=0)]
        _, violations = run_suite(
            stream, context, factories=(SchedulePeriodicityMonitor,)
        )
        assert [v.invariant for v in violations] == ["integral_completion"]


class TestSuiteLifecycle:
    def test_strict_mode_raises_from_end_run(self):
        suite = MonitorSuite(
            (ClockMonotonicityMonitor,), mode="strict"
        )
        suite.begin_run(MonitorContext(label="broken"))
        suite.write(record("sim.event", 2.0))
        suite.write(record("sim.event", 1.0))  # write() never raises
        with pytest.raises(MonitorError, match="broken"):
            suite.end_run()
        assert not suite.ok
        assert suite.runs == 1

    def test_record_mode_only_collects(self):
        suite, violations = run_suite(
            [record("sim.event", 2.0), record("sim.event", 1.0)],
            factories=(ClockMonotonicityMonitor,),
        )
        assert len(violations) == 1
        assert violations[0].run == "unit"
        assert not suite.ok

    def test_runs_are_isolated_but_violations_accumulate(self):
        suite = MonitorSuite((ClockMonotonicityMonitor,))
        suite.begin_run(MonitorContext(label="first"))
        suite.write(record("sim.event", 2.0))
        suite.write(record("sim.event", 1.0))
        suite.end_run()
        # The second run starts fresh monitors: the old clock state is
        # gone, so an honest stream passes.
        suite.begin_run(MonitorContext(label="second"))
        suite.write(record("sim.event", 0.5))
        assert suite.end_run() == []
        assert [v.run for v in suite.violations] == ["first"]
        assert suite.runs == 2

    def test_nested_begin_run_rejected(self):
        suite = MonitorSuite()
        suite.begin_run(MonitorContext(label="outer"))
        with pytest.raises(ConfigurationError, match="still active"):
            suite.begin_run(MonitorContext(label="inner"))

    def test_end_without_begin_rejected(self):
        with pytest.raises(ConfigurationError, match="no monitor run"):
            MonitorSuite().end_run()

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="record.*strict"):
            MonitorSuite(mode="paranoid")

    def test_records_outside_a_run_are_ignored(self):
        suite = MonitorSuite()
        suite.write(record("sim.event", 1.0))
        assert suite.observed == 0


class TestSerialization:
    def test_violation_round_trips(self):
        violation = Violation(
            monitor="cache_occupancy", invariant="occupancy_bound",
            time=12.5, message="3 resident pages exceed capacity 2",
            run="mini Δ=3",
        )
        assert Violation.from_dict(violation.to_dict()) == violation

    def test_snapshot_embeds_violations_in_manifest(self, mini_config):
        suite = MonitorSuite((ClockMonotonicityMonitor,))
        suite.begin_run(MonitorContext(label="synthetic"))
        suite.write(record("sim.event", 2.0))
        suite.write(record("sim.event", 1.0))
        suite.end_run()
        result = run_experiment(mini_config.with_(num_requests=200))
        manifest = build_manifest(result, tracer=Tracer(suite))
        block = manifest["monitors"]
        assert block["schema"] == "repro.obs.monitor/1"
        assert block["runs"] == 1
        restored = [
            Violation.from_dict(payload) for payload in block["violations"]
        ]
        assert restored == suite.violations


class TestRunnerIntegration:
    @pytest.mark.parametrize("engine", ["fast", "fast-reference", "process"])
    def test_strict_monitors_pass_and_preserve_results(
        self, mini_config, engine
    ):
        config = mini_config.with_(num_requests=300)
        bare = run_experiment(config, engine=engine)
        sink = MemorySink()
        monitors = MonitorSuite(mode="strict")
        watched = run_experiment(config, engine=engine,
                                 tracer=Tracer(sink, monitors))
        assert monitors.ok
        assert monitors.runs == 1
        # The suite saw every record the caller's sink received.
        assert monitors.observed == len(sink) > 0
        assert watched.mean_response_time == bare.mean_response_time
        assert watched.hit_rate == bare.hit_rate

    def test_monitors_compose_with_caller_tracer(self, mini_config):
        sink = MemorySink(capacity=100_000)
        monitors = MonitorSuite(mode="strict")
        tracer = Tracer(sink, monitors)
        run_experiment(mini_config.with_(num_requests=200), tracer=tracer)
        assert monitors.ok
        # The suite observed the same stream the caller's sink received,
        # and its run ended afterwards: new emissions bypass the monitors.
        assert monitors.observed == len(sink)
        observed_before = monitors.observed
        tracer.emit("sim.event", 1.0)
        assert monitors.observed == observed_before

    def test_sweep_tracer_suite_checks_every_plan(self, mini_config):
        sink = MemorySink()
        monitors = MonitorSuite(mode="strict")
        configs = [mini_config.with_(num_requests=200, delta=delta)
                   for delta in (1, 2, 3)]
        results = sweep_results(configs, tracer=Tracer(sink, monitors))
        assert len(results) == 3
        assert monitors.ok
        assert monitors.runs == 3
        assert monitors.observed == len(sink) > 0

    def test_disabled_suite_never_runs(self, mini_config):
        monitors = MonitorSuite()
        run_experiment(mini_config.with_(num_requests=200),
                       tracer=Tracer(monitors, enabled=False))
        assert monitors.runs == 0
        assert monitors.observed == 0
