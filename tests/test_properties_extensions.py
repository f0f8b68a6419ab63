"""Property tests (hypothesis) for the extension engines' invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.client.prefetch import PrefetchEngine
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.query.engine import fetch_opportunistic, fetch_sequential
from repro.updates.engine import VolatileEngine
from repro.updates.process import PeriodicUpdateModel, PoissonUpdateModel
from repro.cache.base import PolicyContext
from repro.cache.lru import LRUPolicy
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@st.composite
def small_worlds(draw):
    """A random small broadcast world and a request string over it."""
    sizes = draw(
        st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=3)
    )
    delta = draw(st.integers(min_value=0, max_value=3))
    layout = DiskLayout.from_delta(sizes, delta)
    total = layout.total_pages
    requests = draw(
        st.lists(
            st.integers(min_value=0, max_value=total - 1),
            min_size=1,
            max_size=40,
        )
    )
    return layout, requests


class TestPrefetchProperties:
    @given(small_worlds(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_capacity_and_response_bounds(self, world, capacity):
        layout, requests = world
        schedule = multidisk_program(layout)
        mapping = LogicalPhysicalMapping(layout)
        total = layout.total_pages
        engine = PrefetchEngine(
            schedule=schedule,
            mapping=mapping,
            layout=layout,
            probability=lambda page: (total - page) / (total * total),
            cache_capacity=capacity,
            think_time=1.5,
        )
        outcome = engine.run_trace(RequestTrace.from_pages(requests))
        assert len(engine.resident_pages) <= capacity
        assert outcome.response.minimum >= 0.0 or outcome.response.count == 0
        worst = max(
            schedule.worst_case_delay(mapping.to_physical(page))
            for page in set(requests)
        )
        if outcome.response.count:
            assert outcome.response.maximum <= worst + 1.0

    @given(small_worlds())
    @settings(max_examples=60, deadline=None)
    def test_accounting(self, world):
        layout, requests = world
        schedule = multidisk_program(layout)
        mapping = LogicalPhysicalMapping(layout)
        total = layout.total_pages
        engine = PrefetchEngine(
            schedule=schedule,
            mapping=mapping,
            layout=layout,
            probability=lambda page: (total - page) / (total * total),
            cache_capacity=3,
            think_time=2.0,
        )
        outcome = engine.run_trace(RequestTrace.from_pages(requests))
        counters = outcome.counters
        assert counters.hits + counters.misses == len(requests)


class TestVolatileProperties:
    @given(
        small_worlds(),
        st.floats(min_value=5.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_stale_reads_bounded_by_hits(self, world, interval):
        layout, requests = world
        schedule = multidisk_program(layout)
        mapping = LogicalPhysicalMapping(layout)
        engine = VolatileEngine(
            schedule=schedule,
            mapping=mapping,
            layout=layout,
            cache=LRUPolicy(3, PolicyContext()),
            updates=PeriodicUpdateModel.uniform(
                interval, layout.total_pages, rng=np.random.default_rng(1)
            ),
            think_time=2.0,
        )
        outcome = engine.run_trace(RequestTrace.from_pages(requests))
        assert outcome.stale_reads <= outcome.counters.hits
        assert 0.0 <= outcome.stale_fraction <= 1.0

    @given(
        small_worlds(),
        st.sampled_from([3.0, 7.5, 10.0, 25.0]),
        st.booleans(),
    )
    @example(
        world=(DiskLayout(sizes=(7,), rel_freqs=(1,)),
               [0, 1, 2, 4, 0, 1, 1, 4, 4]),
        report_interval=10.0,
        poisson=False,
    )
    @settings(max_examples=60, deadline=None)
    def test_stale_reads_fall_within_one_report_window(
        self, world, report_interval, poisson
    ):
        # What reports guarantee: a report at k*R drops every cached page
        # updated in ((k-1)*R, k*R], and is heard before any lookup after
        # k*R.  So a copy read stale at instant t is of a page updated
        # after the last report at or before t, i.e. in (t - R, t].
        # They do not bound stale reads by the count without reports: in
        # the pinned world the report at t=40 drops page 1, its re-fetch
        # moves the clock from 46 to 51, and both reads of page 4 land
        # after its update in (50, 53] -- 2 stale reads against 0.
        layout, requests = world
        schedule = multidisk_program(layout)
        mapping = LogicalPhysicalMapping(layout)
        total = layout.total_pages
        if poisson:
            updates = PoissonUpdateModel(
                lambda page: 1 / 40, total, rng=np.random.default_rng(1),
                horizon=1e5,
            )
        else:
            updates = PeriodicUpdateModel.uniform(
                40.0, total, rng=np.random.default_rng(1)
            )
        engine = RecordingVolatileEngine(
            schedule=schedule,
            mapping=mapping,
            layout=layout,
            cache=LRUPolicy(3, PolicyContext()),
            updates=updates,
            think_time=2.0,
            report_interval=report_interval,
        )
        outcome = engine.run_trace(RequestTrace.from_pages(requests))
        assert len(engine.stale_hits) == outcome.stale_reads
        for page, instant in engine.stale_hits:
            assert updates.updated_in(
                mapping.to_physical(page), instant - report_interval, instant
            )


class RecordingVolatileEngine(VolatileEngine):
    """Records the ``(page, instant)`` of every measured stale read."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stale_hits = []

    def lookup(self, page, now):
        before = self._stale_reads
        hit = super().lookup(page, now)
        if self._stale_reads > before:
            self.stale_hits.append((page, now))
        return hit


class TestQueryProperties:
    @given(small_worlds())
    @settings(max_examples=80, deadline=None)
    def test_opportunistic_dominates_sequential(self, world):
        layout, requests = world
        schedule = multidisk_program(layout)
        mapping = LogicalPhysicalMapping(layout)
        pages = list(dict.fromkeys(requests))[:6]
        seq = fetch_sequential(schedule, mapping, pages, start=0.7)
        opp = fetch_opportunistic(schedule, mapping, pages, start=0.7)
        assert opp.makespan <= seq.makespan + 1e-9
        # Both collect exactly the requested distinct pages.
        assert sorted(p for _t, p in opp.completions) == sorted(pages)
        assert sorted(p for _t, p in seq.completions) == sorted(pages)
        # Opportunistic completions are time-ordered.
        times = [t for t, _p in opp.completions]
        assert times == sorted(times)
