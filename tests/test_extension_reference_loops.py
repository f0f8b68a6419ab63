"""The extension studies on FastEngine against their retired request loops.

``VolatileEngine`` and ``PrefetchEngine`` used to step their own request
loops beside ``FastEngine._run``; they are now cache policies the fast
engine drives.  The two loops are kept here, as they were, as reference
implementations: over hypothesis-drawn small worlds, both extension
engines must reproduce them field for field — the Welford internals,
the counters, and each study's own counts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheCounters, PolicyContext
from repro.cache.registry import make_policy
from repro.client.prefetch import PrefetchEngine
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.experiments.engine import EngineOutcome, FastEngine
from repro.sim.stats import RunningStats
from repro.updates.engine import VolatileEngine, VolatileOutcome
from repro.updates.process import PeriodicUpdateModel, PoissonUpdateModel
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace

THINK_TIMES = (0.0, 0.5, 1.0, 2.0, math.sqrt(5.0))


def reference_volatile_run(engine, trace, warmup_requests=0):
    """The volatile-data request loop before it ran on FastEngine."""
    schedule = engine.schedule
    mapping = engine.mapping
    cache = engine.cache
    updates = engine.updates
    think = engine.think_time
    report_interval = engine.report_interval
    disk_of_physical = engine.layout.disk_of_page

    fetched_version = {}
    response = RunningStats()
    counters = CacheCounters()
    stale_reads = 0
    invalidations = 0
    reports_heard = 0
    next_report = report_interval if report_interval is not None else None
    last_report_time = 0.0

    now = 0.0
    for index in range(len(trace)):
        page = trace[index]
        now += think
        if next_report is not None:
            while next_report <= now:
                reports_heard += 1
                for cached_page in list(cache.pages()):
                    physical = mapping.to_physical(cached_page)
                    if updates.updated_in(
                        physical, last_report_time, next_report
                    ):
                        cache.discard(cached_page)
                        fetched_version.pop(cached_page, None)
                        invalidations += 1
                last_report_time = next_report
                next_report += report_interval

        measuring = index >= warmup_requests
        physical = mapping.to_physical(page)

        if cache.lookup(page, now):
            if measuring:
                response.add(0.0)
                counters.record_hit()
                if updates.version_at(physical, now) > fetched_version.get(
                    page, 0
                ):
                    stale_reads += 1
            continue

        arrival = schedule.next_arrival(physical, now)
        wait = arrival - now
        now = arrival
        outside = cache.admit(page, now)
        if outside != page:
            fetched_version[page] = updates.version_at(physical, now)
        if outside is not None and outside != page:
            fetched_version.pop(outside, None)
        if measuring:
            response.add(wait)
            counters.record_miss(disk_of_physical(physical))

    return VolatileOutcome(
        response=response,
        counters=counters,
        stale_reads=stale_reads,
        invalidations_applied=invalidations,
        reports_heard=reports_heard,
    )


def reference_snoop_until(engine, start, stop):
    """The PT prefetcher's own slot walk over ``(start, stop]``."""
    to_logical = engine.mapping.to_logical
    first_slot = int(math.floor(start))
    last_slot = int(math.ceil(stop)) - 1
    period = engine.schedule.period
    slots = engine.schedule.slots
    for slot in range(first_slot, last_slot + 1):
        completion = slot + 1.0
        if completion <= start or completion > stop:
            continue
        physical = slots[slot % period]
        if physical < 0:  # padding
            continue
        engine._consider(to_logical(physical), completion)
    return stop


def reference_prefetch_run(
    engine, trace, warmup_requests=0, collect_responses=False
):
    """The PT prefetcher's request loop before it ran on FastEngine."""
    schedule = engine.schedule
    mapping = engine.mapping
    response = RunningStats()
    counters = CacheCounters()
    samples = [] if collect_responses else None

    now = 0.0
    for index in range(len(trace)):
        now = reference_snoop_until(engine, now, now + engine.think_time)
        measuring = index >= warmup_requests
        page = trace[index]

        if page in engine._resident:
            if measuring:
                response.add(0.0)
                counters.record_hit()
                if samples is not None:
                    samples.append(0.0)
            continue

        physical = mapping.to_physical(page)
        arrival = schedule.next_arrival(physical, now)
        reference_snoop_until(engine, now, arrival)
        wait = arrival - now
        now = arrival
        if measuring:
            response.add(wait)
            counters.record_miss(engine.layout.disk_of_page(physical))
            if samples is not None:
                samples.append(wait)

    return EngineOutcome(
        response=response,
        counters=counters,
        warmup_requests=min(warmup_requests, len(trace)),
        final_time=now,
        samples=samples,
    )


def welford(stats):
    return (stats.count, stats._mean, stats._m2, stats.minimum, stats.maximum)


def counts(counters):
    return (counters.hits, counters.misses, counters.per_disk_misses)


@st.composite
def worlds(draw):
    """A small multidisk world, an offset mapping and a request string."""
    sizes = draw(
        st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=3)
    )
    layout = DiskLayout.from_delta(sizes, draw(st.integers(0, 3)))
    total = layout.total_pages
    mapping = LogicalPhysicalMapping(
        layout, offset=draw(st.integers(0, total - 1))
    )
    requests = draw(
        st.lists(st.integers(0, total - 1), min_size=1, max_size=60)
    )
    return layout, mapping, requests


def zipf_like(total):
    weight = total * (total + 1) / 2.0
    return lambda page: (total - page) / weight if 0 <= page < total else 0.0


def build_cache(policy, capacity, layout, schedule, mapping):
    return make_policy(policy, capacity, PolicyContext(
        probability=zipf_like(layout.total_pages),
        frequency=lambda page: schedule.frequency(mapping.to_physical(page)),
        disk_of=lambda page: layout.disk_of_page(mapping.to_physical(page)),
        num_disks=layout.num_disks,
    ))


def build_updates(kind, rate, total, seed):
    if kind == "periodic":
        return PeriodicUpdateModel.uniform(
            1.0 / rate, total, rng=np.random.default_rng(seed)
        )
    return PoissonUpdateModel(
        lambda page: rate, total, rng=np.random.default_rng(seed),
        horizon=1e5,
    )


class TestVolatileAgainstReference:
    @given(
        worlds(),
        st.sampled_from(["LRU", "L", "LIX", "P", "PIX"]),
        st.integers(1, 6),
        st.sampled_from(THINK_TIMES),
        st.sampled_from([None, 3.0, 7.5, 10.0]),
        st.sampled_from(["periodic", "poisson"]),
        st.sampled_from([0.005, 0.03, 0.2]),
        st.integers(0, 2**16),
        st.integers(0, 70),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_retired_loop(
        self, world, policy, capacity, think, report_interval, kind, rate,
        seed, warmup,
    ):
        layout, mapping, requests = world
        schedule = multidisk_program(layout)
        trace = RequestTrace.from_pages(requests)

        def engine():
            return VolatileEngine(
                schedule, mapping, layout,
                build_cache(policy, capacity, layout, schedule, mapping),
                build_updates(kind, rate, layout.total_pages, seed),
                think_time=think, report_interval=report_interval,
            )

        new, old = engine(), engine()
        # Two runs each: the cache carries over, versions and clock restart.
        for _ in range(2):
            got = new.run_trace(trace, warmup_requests=warmup)
            want = reference_volatile_run(old, trace, warmup_requests=warmup)
            assert welford(got.response) == welford(want.response)
            assert counts(got.counters) == counts(want.counters)
            assert got.measured_requests == want.measured_requests
            assert got.stale_reads == want.stale_reads
            assert got.invalidations_applied == want.invalidations_applied
            assert got.reports_heard == want.reports_heard
            assert sorted(new.pages()) == sorted(old.cache.pages())

    @given(
        worlds(),
        st.sampled_from(["LRU", "L", "LIX", "P", "PIX"]),
        st.integers(1, 6),
        st.sampled_from(THINK_TIMES),
        st.integers(0, 70),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_data_equals_plain_fast_engine(
        self, world, policy, capacity, think, warmup
    ):
        layout, mapping, requests = world
        schedule = multidisk_program(layout)
        trace = RequestTrace.from_pages(requests)
        volatile = VolatileEngine(
            schedule, mapping, layout,
            build_cache(policy, capacity, layout, schedule, mapping),
            PeriodicUpdateModel.uniform(math.inf, layout.total_pages),
            think_time=think,
        ).run_trace(trace, warmup_requests=warmup)
        plain = FastEngine(
            schedule, mapping, layout,
            build_cache(policy, capacity, layout, schedule, mapping),
            think,
        ).run_trace(trace, warmup_requests=warmup)
        assert welford(volatile.response) == welford(plain.response)
        assert counts(volatile.counters) == counts(plain.counters)
        assert volatile.measured_requests == plain.measured_requests
        assert volatile.stale_reads == 0
        assert volatile.invalidations_applied == 0
        assert volatile.reports_heard == 0


class TestPrefetchAgainstReference:
    @given(
        worlds(),
        st.sampled_from(["steady", "dynamic"]),
        st.integers(1, 6),
        st.sampled_from(THINK_TIMES),
        st.integers(0, 70),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_retired_loop(
        self, world, variant, capacity, think, warmup, collect
    ):
        layout, mapping, requests = world
        schedule = multidisk_program(layout)
        trace = RequestTrace.from_pages(requests)

        def engine():
            return PrefetchEngine(
                schedule, mapping, layout, zipf_like(layout.total_pages),
                capacity, think, variant=variant,
            )

        new, old = engine(), engine()
        # Two runs each: the cache carries over, the clock restarts at 0.
        for _ in range(2):
            got = new.run_trace(
                trace, warmup_requests=warmup, collect_responses=collect
            )
            want = reference_prefetch_run(
                old, trace, warmup_requests=warmup, collect_responses=collect
            )
            assert welford(got.response) == welford(want.response)
            assert counts(got.counters) == counts(want.counters)
            assert got.measured_requests == want.measured_requests
            assert got.warmup_requests == want.warmup_requests
            assert got.final_time == want.final_time
            assert got.samples == want.samples
            assert new.resident_pages == old.resident_pages
