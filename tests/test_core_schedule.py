"""Unit tests for BroadcastSchedule (repro.core.schedule)."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.chunks import EMPTY_SLOT
from repro.core.schedule import (
    MAX_PAGE_ID,
    BroadcastProgram,
    BroadcastSchedule,
)
from repro.errors import ScheduleError


class TestConstruction:
    def test_basic_properties(self):
        schedule = BroadcastSchedule([0, 1, 0, 2])
        assert schedule.period == 4
        assert schedule.num_pages == 3
        assert schedule.pages == [0, 1, 2]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            BroadcastSchedule([])

    def test_all_empty_slots_rejected(self):
        with pytest.raises(ScheduleError):
            BroadcastSchedule([EMPTY_SLOT, EMPTY_SLOT])

    def test_negative_page_id_rejected(self):
        with pytest.raises(ScheduleError):
            BroadcastSchedule([0, -5])

    def test_empty_slots_counted(self):
        schedule = BroadcastSchedule([0, EMPTY_SLOT, 1, EMPTY_SLOT])
        assert schedule.empty_slots == 2

    def test_contains(self):
        schedule = BroadcastSchedule([0, 1])
        assert 0 in schedule
        assert 5 not in schedule

    def test_occurrences_sorted(self):
        schedule = BroadcastSchedule([3, 0, 3, 1, 3])
        assert list(schedule.occurrences(3)) == [0, 2, 4]

    def test_occurrences_unknown_page_raises(self):
        schedule = BroadcastSchedule([0, 1])
        with pytest.raises(ScheduleError):
            schedule.occurrences(9)


class TestPickling:
    def test_schedule_and_program_round_trip(self):
        # The tables are rebuilt from the slots; timing is unchanged.
        schedule = BroadcastSchedule([0, 1, 0, EMPTY_SLOT], label="s")
        program = BroadcastProgram(
            [schedule, BroadcastSchedule([2, 3])], label="p"
        )
        for original in (schedule, program, copy.deepcopy(program)):
            clone = pickle.loads(pickle.dumps(original))
            assert clone.label == original.label
            assert clone.pages == original.pages
            assert clone.regular_timing()[1].tolist() == (
                original.regular_timing()[1].tolist()
            )
            assert clone.next_arrival(0, 2.5) == original.next_arrival(0, 2.5)
        assert pickle.loads(pickle.dumps(schedule)).slots == schedule.slots


class TestPageIdBound:
    """Per-page tables are indexed by page id, so a sparse id is refused
    at construction instead of failing later with a MemoryError."""

    @pytest.mark.parametrize("page", [MAX_PAGE_ID + 1, 10**12, 10**20])
    def test_page_id_above_bound_rejected_at_construction(self, page):
        with pytest.raises(
            ScheduleError,
            match=f"largest allowed page id {MAX_PAGE_ID}",
        ):
            BroadcastSchedule([page, 0])

    def test_sparse_page_below_bound_times_scalar_and_batch(self):
        page = 100_000
        schedule = BroadcastSchedule([page, 0, EMPTY_SLOT])
        residue, gap = schedule.regular_timing()
        assert len(gap) == page + 1
        assert gap[page] == 3 and gap[1] == 0
        times = np.array([0.0, 1.5, 7.0])
        batch = schedule.next_arrival_batch(np.full(3, page), times)
        assert batch.tolist() == [
            schedule.next_arrival_bisect(page, t) for t in times
        ]
        assert 5 not in schedule and page in schedule
        with pytest.raises(ScheduleError):
            schedule.frequency(5)


class TestFrequency:
    def test_frequency_is_fraction_of_slots(self):
        schedule = BroadcastSchedule([0, 1, 0, 2])
        assert schedule.frequency(0) == pytest.approx(0.5)
        assert schedule.frequency(1) == pytest.approx(0.25)

    def test_broadcasts_per_period(self):
        schedule = BroadcastSchedule([0, 0, 0, 1])
        assert schedule.broadcasts_per_period(0) == 3


class TestNextArrival:
    def test_wait_from_time_zero(self):
        # Page 1 broadcast in slot 1, completion at 2.0.
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.next_arrival(1, 0.0) == 2.0

    def test_request_mid_slot(self):
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.next_arrival(0, 0.5) == 1.0

    def test_request_exactly_at_completion_misses_it(self):
        # §2.1 semantics: must wait for the next full transmission.
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.next_arrival(0, 1.0) == 4.0

    def test_wraps_to_next_period(self):
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.next_arrival(0, 2.5) == 4.0

    def test_deep_into_later_cycles(self):
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.next_arrival(1, 31.0) == 32.0
        assert schedule.next_arrival(1, 32.0) == 35.0

    def test_multiple_occurrences_choose_nearest(self):
        schedule = BroadcastSchedule([0, 1, 0, 2])
        assert schedule.next_arrival(0, 1.5) == 3.0
        assert schedule.next_arrival(0, 3.0) == 5.0

    def test_wait_time(self):
        schedule = BroadcastSchedule([0, 1, 2])
        assert schedule.wait_time(2, 0.25) == pytest.approx(2.75)


class TestGapsAndDelay:
    def test_gaps_single_occurrence(self):
        schedule = BroadcastSchedule([0, 1, 2, 3])
        assert list(schedule.gaps(2)) == [4]

    def test_gaps_multiple_occurrences(self):
        schedule = BroadcastSchedule([0, 0, 1, 2])  # A at slots 0,1
        assert sorted(schedule.gaps(0).tolist()) == [1, 3]

    def test_fixed_interarrival_detection(self):
        multidisk = BroadcastSchedule([0, 1, 0, 2])
        skewed = BroadcastSchedule([0, 0, 1, 2])
        assert multidisk.has_fixed_interarrival(0)
        assert not skewed.has_fixed_interarrival(0)

    def test_expected_delay_flat(self):
        schedule = BroadcastSchedule([0, 1, 2])
        for page in range(3):
            assert schedule.expected_delay(page) == pytest.approx(1.5)

    def test_expected_delay_matches_paper_table1_values(self):
        skewed = BroadcastSchedule([0, 0, 1, 2])
        multidisk = BroadcastSchedule([0, 1, 0, 2])
        assert skewed.expected_delay(0) == pytest.approx(1.25)
        assert skewed.expected_delay(1) == pytest.approx(2.0)
        assert multidisk.expected_delay(0) == pytest.approx(1.0)
        assert multidisk.expected_delay(1) == pytest.approx(2.0)

    def test_expected_delay_equals_brute_force_phase_average(self):
        schedule = BroadcastSchedule([0, 3, 0, 1, 2, 3, 0, 1])
        for page in schedule.pages:
            # Average the wait over a dense grid of arrival phases.
            phases = np.linspace(0, schedule.period, 4001, endpoint=False)
            waits = [schedule.next_arrival(page, t) - t for t in phases]
            assert schedule.expected_delay(page) == pytest.approx(
                np.mean(waits), rel=1e-2
            )

    def test_delay_variance_zero_iff_would_be_wrong(self):
        # Fixed gaps still have within-gap variance (uniform over the gap).
        schedule = BroadcastSchedule([0, 1, 0, 2])
        # Gap 2 -> wait ~ Uniform(0,2): variance 4/12.
        assert schedule.delay_variance(0) == pytest.approx(4.0 / 12.0)

    def test_variance_grows_with_gap_imbalance(self):
        balanced = BroadcastSchedule([0, 1, 0, 2])
        clustered = BroadcastSchedule([0, 0, 1, 2])
        assert clustered.delay_variance(0) > balanced.delay_variance(0)

    def test_expected_delay_under_distribution(self):
        schedule = BroadcastSchedule([0, 1, 0, 2])
        probabilities = {0: 0.5, 1: 0.25, 2: 0.25}
        assert schedule.expected_delay_under(probabilities) == pytest.approx(1.5)

    def test_expected_delay_under_ignores_zero_probability(self):
        schedule = BroadcastSchedule([0, 1])
        # Page 9 is never broadcast; zero probability must not raise.
        assert schedule.expected_delay_under({0: 1.0, 9: 0.0}) == pytest.approx(
            schedule.expected_delay(0)
        )


class TestSlotIteration:
    def test_page_at(self):
        schedule = BroadcastSchedule([5, EMPTY_SLOT, 7])
        assert schedule.page_at(0.5) == 5
        assert schedule.page_at(1.5) is None
        assert schedule.page_at(2.5) == 7
        assert schedule.page_at(3.5) == 5  # wraps

    def test_completions_in_interval(self):
        schedule = BroadcastSchedule([0, 1, 2])
        completions = list(schedule.completions_in(0.0, 3.0))
        assert completions == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_completions_exclude_start_include_stop(self):
        schedule = BroadcastSchedule([0, 1, 2])
        completions = list(schedule.completions_in(1.0, 2.0))
        assert completions == [(2.0, 1)]

    def test_completions_skip_padding(self):
        schedule = BroadcastSchedule([0, EMPTY_SLOT, 2])
        pages = [page for _t, page in schedule.completions_in(0.0, 3.0)]
        assert pages == [0, 2]

    def test_completions_across_period_boundary(self):
        schedule = BroadcastSchedule([0, 1])
        completions = list(schedule.completions_in(1.5, 3.5))
        assert completions == [(2.0, 1), (3.0, 0)]
