"""Trace-bus tests: kernel/channel/client/cache hooks, sinks, no-op path.

The load-bearing assertions:

* the ``Simulator.trace`` hook emits exactly one ``sim.event`` record
  per processed event (``events_processed`` agrees with the trace);
* a multi-disk schedule traced slot-by-slot shows zero per-page gap
  variance (§2.1 fixed inter-arrival);
* traced and untraced runs produce byte-identical measurements (both
  engines), so observability can never perturb the reproduction.
"""

from __future__ import annotations

import re

import pytest

from repro.batch.engine import build_columnar_engine
from repro.cache.base import PolicyContext
from repro.cache.registry import make_policy
from repro.errors import ConfigurationError
from repro.exec.build import BuildCache
from repro.experiments.engine import FastEngine
from repro.experiments.runner import run_experiment
from repro.experiments.simengine import ClientSpec, ProcessEngine
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    read_jsonl,
    trace_schedule,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import generate_trace
from repro.workload.zipf import ZipfRegionDistribution


def _counts(records):
    by_kind = {}
    for record in records:
        kind = record.kind if isinstance(record, TraceRecord) else record["kind"]
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return by_kind


class TestSimulatorTraceHook:
    def test_events_processed_matches_trace_records(self):
        """One ``sim.event`` record per dispatched event, no more, no less."""
        sink = MemorySink()
        sim = Simulator()
        sim.trace = Tracer(sink)
        fired = []
        # A small scripted simulation: chained timeouts plus a process.
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.5, lambda: sim.schedule(1.0, lambda: fired.append("b")))

        def worker(sim):
            yield sim.timeout(2.0)
            yield sim.timeout(3.0)

        sim.process(worker(sim))
        sim.run()
        assert fired == ["a", "b"]
        assert sim.events_processed > 0
        records = sink.records
        assert len(records) == sim.events_processed
        assert all(record.kind == "sim.event" for record in records)
        # Record times are the dispatch instants, in non-decreasing order.
        times = [record.time for record in records]
        assert times == sorted(times)

    def test_sim_event_records_carry_only_seq(self):
        sink = MemorySink()
        sim = Simulator()
        sim.trace = Tracer(sink)
        for delay in (1.0, 1.0, 2.0):
            sim.timeout(delay)
        sim.run()
        fields = [record.fields for record in sink.records]
        assert [set(field) for field in fields] == [{"seq"}] * 3
        assert [field["seq"] for field in fields] == [0, 1, 2]

    def test_no_tracer_is_default_and_harmless(self):
        sim = Simulator()
        assert sim.trace is None
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_disabled_tracer_emits_nothing(self):
        sink = MemorySink()
        sim = Simulator()
        sim.trace = Tracer(sink, enabled=False)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1
        assert len(sink) == 0


class TestSinks:
    def test_memory_sink_ring_buffer(self):
        sink = MemorySink(capacity=3)
        tracer = Tracer(sink)
        for index in range(5):
            tracer.emit("k", float(index), i=index)
        assert tracer.emitted == 5
        assert [record.fields["i"] for record in sink.records] == [2, 3, 4]

    def test_memory_sink_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            tracer.emit("client.hit", 1.5, page=3)
            tracer.emit("channel.deliver", 2.0, page=7)
        records = list(read_jsonl(path))
        assert records == [
            {"t": 1.5, "kind": "client.hit", "page": 3},
            {"t": 2.0, "kind": "channel.deliver", "page": 7},
        ]

    def test_multiple_sinks_see_every_record(self, tmp_path):
        memory = MemorySink()
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(memory, JsonlSink(path))
        tracer.emit("k", 0.5, x=1)
        tracer.close()
        assert len(memory) == 1
        assert len(list(read_jsonl(path))) == 1

    def test_torn_trace_names_path_and_line(self, tmp_path, mini_config,
                                            cut_mid_record):
        path = str(tmp_path / "trace.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            run_experiment(mini_config.with_(num_requests=100), tracer=tracer)
        line = cut_mid_record(path)
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(path)}:{line}: malformed trace line"):
            list(read_jsonl(path))


class TestScheduleTracing:
    def test_multidisk_gaps_are_fixed(self, tiny_schedule):
        """§2.1: every page of the multidisk program has fixed gaps."""
        sink = MemorySink()
        tracer = Tracer(sink)
        emitted = trace_schedule(tiny_schedule, tracer, periods=3)
        assert emitted == len(sink)
        arrivals = {}
        for record in sink.records:
            arrivals.setdefault(record.fields["page"], []).append(record.time)
        assert len(arrivals) == 14  # 2 + 4 + 8 pages
        for page, times in arrivals.items():
            gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
            assert len(gaps) == 1, (page, gaps)

    def test_rejects_zero_periods(self, tiny_schedule):
        with pytest.raises(ValueError):
            trace_schedule(tiny_schedule, Tracer(), periods=0)


class TestChannelAndClientHooks:
    def _run_process(self, tracer, observe_all=False):
        from repro.core.disks import DiskLayout
        from repro.core.programs import _multidisk_program as multidisk_program

        layout = DiskLayout((2, 4, 8), (4, 2, 1))
        schedule = multidisk_program(layout)
        engine = ProcessEngine(schedule, layout, tracer=tracer)
        if observe_all:
            engine.channel.observe_every_slot()
        distribution = ZipfRegionDistribution(
            access_range=14, region_size=2, theta=0.95
        )
        trace = generate_trace(
            distribution, 150, RandomStreams(3).stream("requests")
        )
        engine.add_client(
            ClientSpec(
                mapping=LogicalPhysicalMapping(layout),
                cache=make_policy("LRU", 4, PolicyContext(num_disks=3)),
                trace=trace,
            )
        )
        reports = engine.run()
        return engine, reports[0]

    def test_client_records_match_report(self):
        sink = MemorySink()
        engine, report = self._run_process(Tracer(sink))
        counts = _counts(sink.records)
        assert counts["client.request"] == 150
        # Hits + misses partition the requests.
        assert counts["client.hit"] + counts["client.miss"] == 150
        assert counts["client.miss"] == counts["client.wait"]
        # sim.event records agree with the kernel's own counter.
        assert counts["sim.event"] == engine.sim.events_processed

    def test_observe_every_slot_records_full_broadcast(self):
        sink = MemorySink()
        engine, _report = self._run_process(Tracer(sink), observe_all=True)
        delivers = [r for r in sink.records if r.kind == "channel.deliver"]
        # Every slot delivered: gap variance is exactly zero per page.
        arrivals = {}
        for record in delivers:
            arrivals.setdefault(record.fields["page"], []).append(record.time)
        for times in arrivals.values():
            gaps = {b - a for a, b in zip(times, times[1:])}
            assert len(gaps) <= 1

    def test_tracing_does_not_change_results(self):
        _engine, untraced = self._run_process(None)
        _engine, traced = self._run_process(Tracer(MemorySink()))
        assert traced.response.mean == untraced.response.mean
        assert traced.counters.hits == untraced.counters.hits
        assert traced.counters.misses == untraced.counters.misses


class TestEnginesEmitCacheRecords:
    """Each engine's request loop writes the ``cache.*`` records itself:
    built directly, the fast, process and columnar engines trace one
    request string to the same records."""

    @pytest.fixture
    def world(self, mini_config):
        config = mini_config.with_(cache_size=10)
        builds = BuildCache()
        layout, schedule = builds.layout_and_schedule(config)
        mapping = builds.mapping(config, layout)
        return config, layout, schedule, mapping, builds.trace(config, 300)

    @staticmethod
    def _run(engine, world, tracer):
        config, layout, schedule, mapping, trace = world
        cache = config.build_policy(schedule, mapping,
                                    config.build_distribution(), layout)
        if engine == "fast":
            FastEngine(schedule, mapping, layout, cache, config.think_time,
                       tracer=tracer).run_trace(trace, warmup_requests=0)
        elif engine == "process":
            process = ProcessEngine(schedule, layout, tracer=tracer)
            process.add_client(ClientSpec(
                mapping=mapping, cache=cache, trace=trace,
                think_time=config.think_time, warmup_requests=0,
            ))
            process.run()
        else:
            build_columnar_engine(
                config, schedule, layout, mapping.physical_array()[None, :], 1
            ).run(trace.pages[:, None], warmup_requests=0, tracer=tracer)

    def _cache_records(self, engine, world):
        sink = MemorySink()
        self._run(engine, world, Tracer(sink))
        return [(record.time, record.kind, record.fields)
                for record in sink.records if record.kind.startswith("cache.")]

    def test_every_engine_emits_the_same_cache_records(self, world):
        fast = self._cache_records("fast", world)
        assert {kind for _time, kind, _fields in fast} == {
            "cache.lookup", "cache.admit", "cache.evict",
        }
        lookups = [fields for _time, kind, fields in fast
                   if kind == "cache.lookup"]
        assert {fields["hit"] for fields in lookups} == {True, False}
        evicts = [fields for _time, kind, fields in fast
                  if kind == "cache.evict"]
        assert all(set(fields) == {"page", "admitted"} for fields in evicts)
        assert self._cache_records("columnar", world) == fast
        # The process engine's client labels its records, as it does
        # its client.* ones.
        assert self._cache_records("process", world) == [
            (time, kind, {**fields, "client": "client"})
            for time, kind, fields in fast
        ]

    @pytest.mark.parametrize("engine", ["fast", "process", "columnar"])
    def test_disabled_tracer_records_nothing(self, world, engine):
        sink = MemorySink()
        self._run(engine, world, Tracer(sink, enabled=False))
        assert len(sink) == 0


class TestRunExperimentTracing:
    def test_fast_and_process_traces_agree_on_client_kinds(self, mini_config):
        config = mini_config.with_(num_requests=200)
        fast_sink, process_sink = MemorySink(), MemorySink()
        fast = run_experiment(config, tracer=Tracer(fast_sink))
        process = run_experiment(
            config, engine="process", tracer=Tracer(process_sink)
        )
        assert fast.mean_response_time == process.mean_response_time
        fast_counts = _counts(fast_sink.records)
        process_counts = _counts(process_sink.records)
        for kind in ("client.request", "client.hit", "client.miss",
                     "client.wait", "cache.admit", "cache.evict"):
            assert fast_counts.get(kind) == process_counts.get(kind), kind

    def test_traced_run_is_byte_identical_to_untraced(self, mini_config):
        config = mini_config.with_(num_requests=200)
        untraced = run_experiment(config)
        traced = run_experiment(config, tracer=Tracer(MemorySink()))
        assert traced.mean_response_time == untraced.mean_response_time
        assert traced.hit_rate == untraced.hit_rate
        assert traced.access_locations == untraced.access_locations


class _ExplodingSink:
    """A sink that raises after accepting ``healthy`` records."""

    def __init__(self, healthy=0, close_raises=False):
        self.healthy = healthy
        self.close_raises = close_raises
        self.seen = 0
        self.closed = False

    def write(self, record):
        if self.seen >= self.healthy:
            raise OSError("disk full")
        self.seen += 1

    def close(self):
        self.closed = True
        if self.close_raises:
            raise OSError("flush failed")


class TestSinkQuarantine:
    def test_failing_sink_detached_with_one_warning(self):
        good = MemorySink()
        bad = _ExplodingSink(healthy=2)
        tracer = Tracer(good, bad)
        for t in range(2):
            tracer.emit("sim.event", float(t))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            tracer.emit("sim.event", 2.0)
        # The bad sink is gone; subsequent emissions warn no more and
        # the healthy sink misses nothing.
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            tracer.emit("sim.event", 3.0)
        assert tracer.quarantined == 1
        assert len(good) == 4
        assert bad.seen == 2

    def test_emit_delivers_to_later_sinks_before_quarantining(self):
        # The failing sink sits first: the record must still reach the
        # healthy sink behind it in the same emit call.
        good = MemorySink()
        tracer = Tracer(_ExplodingSink(healthy=0), good)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            tracer.emit("sim.event", 0.0)
        assert len(good) == 1
        assert tracer.quarantined == 1

    def test_close_failure_quarantines_but_closes_the_rest(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        jsonl = JsonlSink(str(path))
        bad = _ExplodingSink(healthy=1, close_raises=True)
        tracer = Tracer(bad, jsonl)
        tracer.emit("sim.event", 0.0)
        with pytest.warns(RuntimeWarning, match="close"):
            tracer.close()
        assert tracer.quarantined == 1
        assert bad.closed  # its close ran (and raised)
        assert len(list(read_jsonl(str(path)))) == 1  # flushed cleanly

    def test_unwritable_jsonl_sink_quarantines_not_crashes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.close()  # writes now raise ValueError on the closed handle
        tracer = Tracer(sink)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            tracer.emit("sim.event", 0.0)
        assert tracer.quarantined == 1
        assert tracer.emitted == 1

    def test_unopenable_jsonl_path_fails_fast(self, tmp_path):
        # Construction (unlike a mid-run write) should fail loudly: the
        # caller asked for a trace at a path that cannot exist.
        with pytest.raises(OSError):
            JsonlSink(str(tmp_path / "no-such-dir" / "trace.jsonl"))
