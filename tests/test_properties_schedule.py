"""Property-based tests (hypothesis) for broadcast program invariants.

These check the §2.2 algorithm's guarantees over *arbitrary* disk
layouts, not just the paper's presets:

* the program is periodic and every page appears;
* every page's inter-arrival time is fixed (the anti-Bus-Stop property);
* broadcast counts are exactly proportional to the relative frequencies;
* expected delay equals half the inter-arrival gap, and the analytic
  layout-level delay matches the schedule-level computation;
* next_arrival is consistent: strictly in the future, lands on a real
  completion of the right page, and no earlier completion exists;
* the per-page tables a schedule builds with NumPy read exactly what a
  per-page scan of the slots gives, and reject writes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.engine import frequency_array
from repro.core.analysis import multidisk_expected_delay
from repro.core.chunks import EMPTY_SLOT, ChunkPlan
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.errors import ScheduleError


@st.composite
def raw_slot_lists(draw):
    """Arbitrary slot lists — irregular spacing, padding, everything."""
    slots = draw(
        st.lists(
            st.one_of(
                st.just(EMPTY_SLOT),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=1,
            max_size=48,
        )
    )
    if all(slot == EMPTY_SLOT for slot in slots):
        slots = slots + [0]
    return slots


@st.composite
def table_slot_lists(draw):
    """Slot lists for the table checks: padding, irregular and repeated
    pages, single slots, and page ids with gaps between them."""
    slots = draw(
        st.lists(
            st.one_of(
                st.just(EMPTY_SLOT),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=300),
            ),
            min_size=1,
            max_size=48,
        )
    )
    if all(slot == EMPTY_SLOT for slot in slots):
        slots = slots + [draw(st.integers(min_value=0, max_value=300))]
    return slots


def naive_tables(slots):
    """Each page's occurrence list and ``fixed_gap`` entry, by a plain
    scan of the slots (the definitions the tables replace)."""
    occurrences = {}
    for index, page in enumerate(slots):
        if page != EMPTY_SLOT:
            occurrences.setdefault(page, []).append(index)
    period = len(slots)
    fixed = {}
    for page, occ in occurrences.items():
        count = len(occ)
        entry = None
        if period % count == 0:
            gap = period // count
            if occ == [occ[0] + gap * step for step in range(count)]:
                entry = ((occ[0] + 1) % gap, gap)
        fixed[page] = entry
    return occurrences, fixed


def assert_read_only(array):
    with pytest.raises(ValueError):
        array[0] = 0


#: Query instants: fractional, exactly integral, and boundary-adjacent.
query_instants = st.one_of(
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.integers(min_value=0, max_value=300).map(float),
)


@st.composite
def disk_layouts(draw):
    """Arbitrary small layouts with non-increasing integer frequencies."""
    num_disks = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=num_disks,
            max_size=num_disks,
        )
    )
    freqs = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=8),
                min_size=num_disks,
                max_size=num_disks,
            )
        ),
        reverse=True,
    )
    return DiskLayout(sizes, freqs)


@st.composite
def delta_layouts(draw):
    """Layouts built through the paper's delta rule."""
    num_disks = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=15),
            min_size=num_disks,
            max_size=num_disks,
        )
    )
    delta = draw(st.integers(min_value=0, max_value=7))
    return DiskLayout.from_delta(sizes, delta)


class TestProgramInvariants:
    @given(disk_layouts())
    @settings(max_examples=120, deadline=None)
    def test_every_page_appears(self, layout):
        program = multidisk_program(layout)
        assert program.num_pages == layout.total_pages

    @given(disk_layouts())
    @settings(max_examples=120, deadline=None)
    def test_fixed_interarrival_for_every_page(self, layout):
        program = multidisk_program(layout)
        for page in range(layout.total_pages):
            assert program.has_fixed_interarrival(page)

    @given(disk_layouts())
    @settings(max_examples=120, deadline=None)
    def test_broadcast_counts_match_rel_freqs(self, layout):
        program = multidisk_program(layout)
        for disk in range(layout.num_disks):
            for page in layout.pages_on_disk(disk):
                assert (
                    program.broadcasts_per_period(page)
                    == layout.rel_freqs[disk]
                )

    @given(disk_layouts())
    @settings(max_examples=120, deadline=None)
    def test_period_matches_chunk_plan(self, layout):
        plan = ChunkPlan.for_layout(layout)
        program = multidisk_program(layout)
        assert program.period == plan.period
        assert program.empty_slots == plan.padding_slots

    @given(disk_layouts())
    @settings(max_examples=100, deadline=None)
    def test_expected_delay_is_half_gap(self, layout):
        program = multidisk_program(layout)
        for disk in range(layout.num_disks):
            page = layout.pages_on_disk(disk)[0]
            gap = program.period / layout.rel_freqs[disk]
            assert math.isclose(program.expected_delay(page), gap / 2.0)

    @given(disk_layouts())
    @settings(max_examples=80, deadline=None)
    def test_analytic_delay_matches_schedule(self, layout):
        total = layout.total_pages
        probabilities = {page: 1.0 / total for page in range(total)}
        program = multidisk_program(layout)
        assert math.isclose(
            multidisk_expected_delay(layout, probabilities),
            program.expected_delay_under(probabilities),
            rel_tol=1e-12,
        )

    @given(delta_layouts())
    @settings(max_examples=100, deadline=None)
    def test_delta_zero_means_every_page_once(self, layout):
        if layout.rel_freqs == tuple([1] * layout.num_disks):
            program = multidisk_program(layout)
            assert program.period == layout.total_pages
            assert program.empty_slots == 0


class TestNextArrivalProperties:
    @given(
        disk_layouts(),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_next_arrival_is_consistent(self, layout, time):
        program = multidisk_program(layout)
        page = layout.total_pages - 1  # slowest page: worst case
        arrival = program.next_arrival(page, time)
        # Strictly in the future.
        assert arrival > time
        # Lands exactly on a completion boundary of that page.
        slot = (math.floor(arrival) - 1) % program.period
        assert program.slots[slot] == page
        # Wait is bounded by the page's gap.
        gap = program.period / layout.rel_freqs[-1]
        assert arrival - time <= gap + 1e-9

    @given(
        disk_layouts(),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_earlier_completion_exists(self, layout, time):
        program = multidisk_program(layout)
        page = 0
        arrival = program.next_arrival(page, time)
        # Check against brute-force enumeration of completions.
        brute = None
        for cycle in range(3):
            for slot in program.occurrences(page):
                completion = (
                    math.floor(time / program.period) + cycle
                ) * program.period + float(slot) + 1.0
                if completion > time and (brute is None or completion < brute):
                    brute = completion
        assert math.isclose(arrival, brute)


class TestTimingStructureEquivalence:
    """The closed-form arithmetic IS the bisection reference.

    ``next_arrival`` dispatches fixed-gap closed form → bisection; the
    closed form must return the exact float the frozen
    ``next_arrival_bisect`` returns, for arbitrary schedules (irregular
    spacing, padding slots) and arbitrary query instants.
    """

    @given(raw_slot_lists(), query_instants)
    @settings(max_examples=150, deadline=None)
    def test_dispatch_matches_bisection_reference(self, slots, time):
        program = BroadcastSchedule(slots)
        for page in program.pages:
            assert program.next_arrival(page, time) == (
                program.next_arrival_bisect(page, time)
            )

    @given(raw_slot_lists(), query_instants)
    @settings(max_examples=150, deadline=None)
    def test_fixed_gap_closed_form_matches_bisection(self, slots, time):
        program = BroadcastSchedule(slots)
        for page in program.pages:
            entry = program.fixed_gap(page)
            if entry is None:
                continue
            residue, gap = entry
            base = math.floor(time) + 1
            arrival = float(base + (residue - base) % gap)
            assert arrival == program.next_arrival_bisect(page, time)

    @given(raw_slot_lists())
    @settings(max_examples=150, deadline=None)
    def test_request_at_completion_instant_misses_it(self, slots):
        # The channel edge (§2.1): a request issued exactly at a
        # completion boundary has missed that transmission.
        program = BroadcastSchedule(slots)
        for page in program.pages:
            for slot in program.occurrences(page):
                completion = float(int(slot) + 1)
                arrival = program.next_arrival(page, completion)
                assert arrival > completion
                assert arrival == program.next_arrival_bisect(page, completion)

    @given(raw_slot_lists(), query_instants)
    @settings(max_examples=100, deadline=None)
    def test_nonempty_completion_matches_scan(self, slots, time):
        program = BroadcastSchedule(slots)
        fast = program.next_nonempty_completion(time)
        assert fast > time
        assert program.page_at(fast - 0.5) is not None
        # No earlier non-empty completion exists.
        probe = math.floor(time) + 1.0
        while probe < fast:
            assert program.page_at(probe - 0.5) is None
            probe += 1.0


class TestScheduleConstructionProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=64)
    )
    @settings(max_examples=150, deadline=None)
    def test_gaps_always_sum_to_period(self, slots):
        program = BroadcastSchedule(slots)
        for page in program.pages:
            assert int(program.gaps(page).sum()) == program.period

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=64)
    )
    @settings(max_examples=150, deadline=None)
    def test_frequencies_sum_to_utilisation(self, slots):
        program = BroadcastSchedule(slots)
        total = sum(program.frequency(page) for page in program.pages)
        assert math.isclose(
            total, 1.0 - program.empty_slots / program.period
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=2, max_size=48)
    )
    @settings(max_examples=150, deadline=None)
    def test_expected_delay_at_least_fixed_gap_floor(self, slots):
        # The Bus Stop Paradox, as an inequality over arbitrary programs.
        program = BroadcastSchedule(slots)
        for page in program.pages:
            floor = program.period / (
                2.0 * program.broadcasts_per_period(page)
            )
            assert program.expected_delay(page) >= floor - 1e-9


class TestScheduleTables:
    """The tables built with the schedule equal a naive per-page scan."""

    @given(table_slot_lists())
    @settings(max_examples=200, deadline=None)
    def test_tables_match_naive_scan(self, slots):
        schedule = BroadcastSchedule(slots)
        occurrences, fixed = naive_tables(slots)
        period = len(slots)
        assert schedule.pages == sorted(occurrences)
        assert schedule.num_pages == len(occurrences)
        assert schedule.empty_slots == slots.count(EMPTY_SLOT)
        assert schedule.slots == tuple(slots)
        for page, occ in occurrences.items():
            assert page in schedule
            assert schedule.occurrences(page).tolist() == occ
            assert_read_only(schedule.occurrences(page))
            assert schedule.broadcasts_per_period(page) == len(occ)
            assert schedule.frequency(page) == len(occ) / period
            assert schedule.fixed_gap(page) == fixed[page]
        top = max(occurrences)
        for page in {-1, top + 1} | set(range(top)) - set(occurrences):
            assert page not in schedule
            for query in (schedule.occurrences, schedule.frequency,
                          schedule.fixed_gap):
                with pytest.raises(ScheduleError):
                    query(page)
        residue, gap = schedule.regular_timing()
        assert len(residue) == len(gap) == top + 1
        for page in range(top + 1):
            entry = fixed.get(page) or (0, 0)
            assert (int(residue[page]), int(gap[page])) == entry
        assert schedule.nonempty_slots.tolist() == [
            index for index, page in enumerate(slots) if page != EMPTY_SLOT
        ]
        for array in (residue, gap, schedule.nonempty_slots):
            assert_read_only(array)

    @given(table_slot_lists(), table_slot_lists())
    @settings(max_examples=150, deadline=None)
    def test_program_tables_match_rows(self, first, second):
        # Two rows with disjoint pages: even ids on channel 0, odd on 1.
        rows = (
            BroadcastSchedule([p if p < 0 else 2 * p for p in first]),
            BroadcastSchedule([p if p < 0 else 2 * p + 1 for p in second]),
        )
        program = BroadcastProgram(rows)
        owner = {page: channel for channel, row in enumerate(rows)
                 for page in row.pages}
        assert program.pages == tuple(sorted(owner))
        assert program.num_pages == len(owner)
        assert program.channel_map() == owner
        channels = program.channel_array()
        residue, gap = program.regular_timing()
        assert len(channels) == len(gap) == max(owner) + 1
        for page in range(len(gap)):
            if page in owner:
                row = rows[owner[page]]
                assert program.channel_of(page) == owner[page]
                assert channels[page] == owner[page]
                entry = row.fixed_gap(page) or (0, 0)
                assert (int(residue[page]), int(gap[page])) == entry
                assert program.fixed_gap(page) == row.fixed_gap(page)
                assert program.frequency(page) == row.frequency(page)
            else:
                assert page not in program
                assert channels[page] == 0 and gap[page] == 0
        assert frequency_array(program).tolist() == [
            rows[owner[page]].frequency(page) if page in owner else 0.0
            for page in range(len(gap))
        ]
        for array in (channels, residue, gap):
            assert_read_only(array)

    @given(table_slot_lists())
    @settings(max_examples=150, deadline=None)
    def test_frequency_array_matches_scalar_frequency(self, slots):
        schedule = BroadcastSchedule(slots)
        expected = [0.0] * (max(schedule.pages) + 1)
        for page in schedule.pages:
            expected[page] = schedule.frequency(page)
        assert frequency_array(schedule).tolist() == expected

    def test_overlapping_rows_name_the_first_shared_page(self):
        rows = (BroadcastSchedule([0, 3, 5]), BroadcastSchedule([5, 1, 3]))
        with pytest.raises(ScheduleError, match=(
            "page 3 appears on channels 0 and 1; channel rows must "
            "partition the pages"
        )):
            BroadcastProgram(rows)
