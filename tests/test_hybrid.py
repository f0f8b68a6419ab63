"""Tests for the hybrid push/pull extension (repro.hybrid)."""

import collections
import math

import pytest

from repro.cache.base import PolicyContext
from repro.cache.lru import LRUPolicy
from repro.core.programs import _flat_program as flat_program, _multidisk_program as multidisk_program
from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError
from repro.hybrid.channel import HybridChannel
from repro.hybrid.client import HybridClient
from repro.hybrid.study import hybrid_population_study, run_hybrid_population
from repro.server.server import BroadcastServer
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


def make_channel(slots=8, pull_spacing=4):
    sim = Simulator()
    schedule = flat_program(slots)
    channel = HybridChannel(sim, schedule, pull_spacing=pull_spacing)
    BroadcastServer(sim, schedule, channel)
    return sim, schedule, channel


class TestTimeArithmetic:
    def test_real_time_of_push_slot(self):
        _sim, _schedule, channel = make_channel(pull_spacing=4)
        # k=4: real slots 3, 7, 11 are pull slots.
        assert channel.real_time_of_push_slot(0) == 0
        assert channel.real_time_of_push_slot(2) == 2
        assert channel.real_time_of_push_slot(3) == 4  # skips real slot 3
        assert channel.real_time_of_push_slot(6) == 8

    def test_push_mapping_skips_every_kth_slot(self):
        _sim, _schedule, channel = make_channel(pull_spacing=3)
        reals = [channel.real_time_of_push_slot(j) for j in range(8)]
        assert reals == [0, 1, 3, 4, 6, 7, 9, 10]

    def test_next_push_arrival_simple(self):
        _sim, _schedule, channel = make_channel(slots=4, pull_spacing=4)
        # Push program ABCD; pull slots at real 3, 7, ...
        # Page 0 airs at push slot 0 -> real 0 (completion 1), next cycle
        # push slot 4 -> real 5 (completion 6).
        assert channel.next_arrival(0, 0.0) == 1.0
        assert channel.next_arrival(0, 1.0) == 6.0

    def test_next_push_arrival_strictly_after(self):
        _sim, _schedule, channel = make_channel(slots=4, pull_spacing=4)
        arrival = channel.next_arrival(2, 0.0)
        assert arrival > 0.0
        later = channel.next_arrival(2, arrival)
        assert later > arrival

    def test_next_push_arrival_fractional_time(self):
        _sim, _schedule, channel = make_channel(slots=4, pull_spacing=4)
        # Page 1 airs at real slot 1, completing at 2.0.  Same semantics
        # as BroadcastSchedule.next_arrival: a request mid-transmission
        # (t=1.5) still catches the completion at 2.0; a request exactly
        # at the completion has missed it.
        assert channel.next_arrival(1, 0.5) == 2.0
        assert channel.next_arrival(1, 1.5) == 2.0
        assert channel.next_arrival(1, 2.0) > 2.0

    def test_next_pull_slot_completion(self):
        _sim, _schedule, channel = make_channel(pull_spacing=4)
        assert channel.next_pull_slot_completion(0.0, 0) == 4.0
        assert channel.next_pull_slot_completion(4.0, 0) == 8.0
        assert channel.next_pull_slot_completion(0.0, 2) == 12.0

    def test_pull_spacing_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            HybridChannel(sim, flat_program(4), pull_spacing=1)


class TestPullDelivery:
    def test_pull_served_at_next_pull_slot(self):
        sim, _schedule, channel = make_channel(slots=8, pull_spacing=4)
        event = channel.request_pull(6)
        sim.run_until_event(event)
        assert sim.now == 4.0
        assert channel.pull_slots_used == 1

    def test_pull_queue_fifo(self):
        sim, _schedule, channel = make_channel(slots=8, pull_spacing=4)
        first = channel.request_pull(6)
        second = channel.request_pull(7)
        sim.run(until=10.0)
        assert first.value == 4.0
        assert second.value == 8.0

    def test_pull_satisfies_push_waiters_of_same_page(self):
        sim, _schedule, channel = make_channel(slots=8, pull_spacing=4)
        push_wait = channel.wait_for(6)
        pull = channel.request_pull(6)
        sim.run(until=6.0)
        # Page 6's push completion would be later; the pulled copy at
        # t=4 satisfies the push waiter too.
        assert pull.value == 4.0
        assert push_wait.processed
        assert push_wait.value == 4.0

    def test_snoopers_are_refused(self):
        _sim, _schedule, channel = make_channel()
        with pytest.raises(ConfigurationError):
            channel.snoop(lambda _time, _page: None)
        with pytest.raises(ConfigurationError):
            channel.observe_every_slot()

    def test_push_waiter_on_hybrid_channel(self):
        sim, _schedule, channel = make_channel(slots=8, pull_spacing=4)
        event = channel.wait_for(0)
        sim.run_until_event(event)
        assert sim.now == 1.0


class TestHybridClient:
    def build(self, *args, **kwargs):
        return self.run_client(*args, **kwargs)[0]

    def run_client(self, pull_threshold, trace, slots=16, pull_spacing=4,
                   upstream_latency=1.0):
        """One client's report, and the channel it ran on."""
        sim = Simulator()
        layout = DiskLayout.flat(slots)
        schedule = flat_program(slots)
        channel = HybridChannel(sim, schedule, pull_spacing=pull_spacing)
        BroadcastServer(sim, schedule, channel)
        upstream = Resource(sim, capacity=1)
        client = HybridClient(
            sim=sim,
            channel=channel,
            mapping=LogicalPhysicalMapping(layout),
            layout=layout,
            cache=LRUPolicy(2, PolicyContext()),
            trace=RequestTrace.from_pages(trace),
            upstream=upstream,
            think_time=1.0,
            pull_threshold=pull_threshold,
            upstream_latency=upstream_latency,
        )
        sim.run_until_event(client.process)
        return client.report, channel

    def test_mute_client_never_pulls(self):
        report = self.build(math.inf, [5, 9, 13])
        assert report.pulls_sent == 0

    def test_eager_client_pulls_distant_pages(self):
        report = self.build(0.0, [15, 14, 13])
        assert report.pulls_sent > 0

    def test_pull_improves_latency_for_single_client(self):
        mute = self.build(math.inf, [15, 10, 12, 9, 14])
        eager = self.build(0.0, [15, 10, 12, 9, 14])
        assert eager.mean_response_time < mute.mean_response_time

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            self.build(-1.0, [1])

    def test_push_completion_wins_the_race(self):
        # At t=1 page 1's push completes at 2.0; the pull, queued at
        # once, would air in the pull slot completing at 4.0.
        report = self.build(0.0, [1], upstream_latency=0.0)
        assert report.pulls_sent == 1
        assert report.pulls_won == 0
        assert report.mean_response_time == 1.0

    def test_own_pull_wins_the_race(self):
        # Page 15 is pushed in real slot 20 (completing at 21.0); the
        # pull airs in the first pull slot, completing at 4.0.
        report = self.build(0.0, [15], upstream_latency=0.0)
        assert report.pulls_sent == 1
        assert report.pulls_won == 1
        assert report.mean_response_time == 3.0

    def test_push_during_the_send_cancels_the_pull(self):
        # At t=1 page 1's push completes at 2.0, inside the pull's
        # 5-unit send latency: the client takes the push, and no pull
        # is sent, queued or aired.
        report, channel = self.run_client(0.0, [1], upstream_latency=5.0)
        assert report.mean_response_time == 1.0
        assert (report.pulls_sent, report.pulls_won) == (0, 0)
        assert channel.pull_queue_length == 0
        assert channel.pull_slots_used == 0

    def test_own_pull_wins_after_the_send(self):
        # Page 15 is pushed at 21.0.  The pull, sent at t=2 after a
        # 1-unit latency, airs in the pull slot completing at 4.0.
        report, channel = self.run_client(0.0, [15], upstream_latency=1.0)
        assert (report.pulls_sent, report.pulls_won) == (1, 1)
        assert report.mean_response_time == 3.0
        assert channel.pull_slots_used == 1

    def test_another_clients_pull_is_not_a_win(self):
        # Both clients pull page 15 at t=1.  The first pull airs at 4.0
        # and serves the second client's push wait too, before that
        # client's own pull (still queued for 8.0) is on the air.
        sim = Simulator()
        layout = DiskLayout.flat(16)
        channel = HybridChannel(sim, flat_program(16), pull_spacing=4)
        BroadcastServer(sim, channel.schedule, channel)
        upstream = Resource(sim, capacity=1)
        clients = [
            HybridClient(
                sim=sim,
                channel=channel,
                mapping=LogicalPhysicalMapping(layout),
                layout=layout,
                cache=LRUPolicy(2, PolicyContext()),
                trace=RequestTrace.from_pages([15]),
                upstream=upstream,
                think_time=1.0,
                pull_threshold=0.0,
                upstream_latency=0.0,
            )
            for _ in range(2)
        ]
        for client in clients:
            sim.run_until_event(client.process)
        first, second = (client.report for client in clients)
        assert (first.pulls_sent, second.pulls_sent) == (1, 1)
        assert (first.pulls_won, second.pulls_won) == (1, 0)
        assert first.mean_response_time == second.mean_response_time == 3.0

    def test_cache_hits_cost_nothing(self):
        report = self.build(math.inf, [3, 3, 3])
        assert report.counters.hits == 2

    @pytest.mark.parametrize("pull_threshold", [math.inf, 0.0])
    def test_misses_book_the_page_disk(self, pull_threshold):
        # A one-page cache and no repeated page: every request misses,
        # and each miss is booked on the disk its physical page airs on.
        layout = DiskLayout((2, 4, 8), (4, 2, 1))
        pages = [0, 2, 3, 6, 7, 8, 13]
        sim = Simulator()
        channel = HybridChannel(sim, multidisk_program(layout),
                                pull_spacing=4)
        BroadcastServer(sim, channel.schedule, channel)
        client = HybridClient(
            sim=sim,
            channel=channel,
            mapping=LogicalPhysicalMapping(layout),
            layout=layout,
            cache=LRUPolicy(1, PolicyContext()),
            trace=RequestTrace.from_pages(pages),
            upstream=Resource(sim, capacity=1),
            think_time=1.0,
            pull_threshold=pull_threshold,
        )
        sim.run_until_event(client.process)
        counters = client.report.counters
        assert counters.misses == len(pages)
        assert counters.per_disk_misses == dict(collections.Counter(
            layout.disk_of_page(page) for page in pages
        )) == {0: 1, 1: 2, 2: 4}

    def test_population_misses_span_the_access_range_disks(self):
        # The 100-page access range of <50,200,250> airs on disks 0 and 1.
        for report in run_hybrid_population(
            2, pull_threshold=math.inf, requests_per_client=300
        ):
            per_disk = report.counters.per_disk_misses
            assert set(per_disk) == {0, 1}
            assert sum(per_disk.values()) == report.counters.misses


class TestTimelineProperties:
    """Property tests for the stretched push timeline."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(min_value=2, max_value=7),   # pull spacing
        st.integers(min_value=2, max_value=12),  # pages
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_next_push_arrival_is_exact(self, spacing, pages, time):
        sim = Simulator()
        schedule = flat_program(pages)
        channel = HybridChannel(sim, schedule, pull_spacing=spacing)
        page = pages - 1
        arrival = channel.next_arrival(page, time)
        assert arrival > time
        # The completing real slot must be a push slot carrying the page.
        real_slot = int(arrival) - 1
        assert (real_slot + 1) % spacing != 0, "landed on a pull slot"
        push_index = real_slot - (real_slot + 1) // spacing
        assert schedule.slots[push_index % schedule.period] == page
        # Brute force: no earlier push completion of the page exists.
        for candidate_real in range(int(time), real_slot):
            if (candidate_real + 1) % spacing == 0:
                continue
            candidate_push = candidate_real - (candidate_real + 1) // spacing
            if schedule.slots[candidate_push % schedule.period] == page:
                assert candidate_real + 1 <= time, (
                    "missed an earlier push completion"
                )


class TestPopulationStudy:
    def test_reports_per_client(self):
        reports = run_hybrid_population(
            3, pull_threshold=50.0, requests_per_client=60, seed=5
        )
        assert len(reports) == 3
        for report in reports:
            assert report.response.count > 0

    def test_single_client_pull_wins_big(self):
        mute = run_hybrid_population(
            1, pull_threshold=math.inf, requests_per_client=120, seed=5
        )[0]
        eager = run_hybrid_population(
            1, pull_threshold=20.0, requests_per_client=120, seed=5
        )[0]
        assert eager.mean_response_time < mute.mean_response_time / 2

    def test_population_validation(self):
        with pytest.raises(ConfigurationError):
            run_hybrid_population(0, pull_threshold=1.0)

    def test_study_series_shapes(self):
        data = hybrid_population_study(
            populations=(1, 4), requests_per_client=60, seed=5
        )
        assert set(data.series) == {
            "dedicated push", "push only", "push + pull", "pulls/client"
        }
        assert len(data.series["push + pull"]) == 2

    def test_push_response_population_independent(self):
        data = hybrid_population_study(
            populations=(1, 8), requests_per_client=80, seed=5
        )
        push = data.series["push only"]
        assert push[1] == pytest.approx(push[0], rel=0.15)

    def test_pull_contention_grows_with_population(self):
        data = hybrid_population_study(
            populations=(1, 16), requests_per_client=80, seed=5
        )
        hybrid = data.series["push + pull"]
        assert hybrid[1] > hybrid[0]
