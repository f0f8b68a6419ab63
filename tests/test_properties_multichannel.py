"""Property-based tests (hypothesis) for multi-channel programs.

Two guarantees, over arbitrary layouts rather than the paper's presets:

* **C=1 reduction** — a one-channel program is byte-identical to the
  legacy single-channel schedule: same slot list, same ``next_arrival``
  floats, same fast-engine measurements;
* **partition** — for any channel count, the union of the channel rows
  is a permutation-free partition of the single-channel page multiset:
  every page appears on exactly one row, with exactly its Δ-rule
  per-cycle broadcast count, and no row ever carries a page twice in
  one gap window (fixed inter-arrival survives the split);
* **refinement pays** — the conflict-aware climb never scores worse
  than the greedy split under its own objective.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import assign_channels, build_program, objective
from repro.core.chunks import EMPTY_SLOT
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.workload.zipf import ZipfRegionDistribution


@st.composite
def delta_layouts(draw):
    """Layouts built through the paper's delta rule."""
    num_disks = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=num_disks,
            max_size=num_disks,
        )
    )
    delta = draw(st.integers(min_value=0, max_value=7))
    return DiskLayout.from_delta(sizes, delta)


@st.composite
def layouts_and_channel_counts(draw):
    layout = draw(delta_layouts())
    num_channels = draw(
        st.integers(min_value=1, max_value=min(4, layout.total_pages))
    )
    return layout, num_channels


query_instants = st.one_of(
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.integers(min_value=0, max_value=300).map(float),
)


class TestSingleChannelReduction:
    @given(delta_layouts())
    @settings(max_examples=120, deadline=None)
    def test_slots_byte_identical(self, layout):
        program = build_program(layout, 1)
        legacy = _multidisk_program(layout)
        assert program.num_channels == 1
        assert program.channels[0].slots == legacy.slots

    @given(delta_layouts(), query_instants)
    @settings(max_examples=120, deadline=None)
    def test_next_arrival_byte_identical(self, layout, time):
        program = build_program(layout, 1)
        legacy = _multidisk_program(layout)
        for page in range(layout.total_pages):
            assert program.next_arrival(page, time) == \
                legacy.next_arrival(page, time)
            assert program.fixed_gap(page) == legacy.fixed_gap(page)

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_fast_engine_stats_byte_identical(self, fast_pages, slow_pages,
                                              delta, seed):
        base = dict(
            disk_sizes=(fast_pages, slow_pages),
            delta=delta,
            cache_size=max(2, fast_pages // 2),
            policy="LIX",
            access_range=fast_pages + slow_pages,
            region_size=1,  # always divides access_range (§4.1 constraint)
            num_requests=120,
            seed=seed,
        )
        legacy = run_experiment(ExperimentConfig(**base), engine="fast",
                                collect_responses=True)
        reduced = run_experiment(ExperimentConfig(**base, channels=1),
                                 engine="fast", collect_responses=True)
        assert reduced.samples == legacy.samples
        assert reduced.mean_response_time == legacy.mean_response_time
        assert reduced.hit_rate == legacy.hit_rate
        assert reduced.retunes == 0


class TestPartitionProperty:
    @given(layouts_and_channel_counts())
    @settings(max_examples=120, deadline=None)
    def test_rows_partition_the_page_set(self, layout_and_count):
        layout, num_channels = layout_and_count
        assignment = assign_channels(layout, num_channels)
        pages = sorted(
            page for channel in assignment.channels for page in channel
        )
        assert pages == list(range(layout.total_pages))

    @given(layouts_and_channel_counts())
    @settings(max_examples=100, deadline=None)
    def test_per_cycle_broadcast_counts_preserved(self, layout_and_count):
        layout, num_channels = layout_and_count
        program = build_program(layout, num_channels)
        legacy = _multidisk_program(layout)
        assert sorted(program.pages) == sorted(legacy.pages)
        for page in program.pages:
            row = program.schedule_of(page)
            assert row.broadcasts_per_period(page) == \
                legacy.broadcasts_per_period(page)
            # The split never puts one page on two rows.
            assert program.channel_of(page) == \
                program.channel_map()[page]

    @given(layouts_and_channel_counts())
    @settings(max_examples=100, deadline=None)
    def test_fixed_interarrival_survives_the_split(self, layout_and_count):
        layout, num_channels = layout_and_count
        program = build_program(layout, num_channels)
        for page in program.pages:
            assert program.fixed_gap(page) is not None

    @given(layouts_and_channel_counts())
    @settings(max_examples=100, deadline=None)
    def test_row_slots_carry_only_assigned_pages(self, layout_and_count):
        layout, num_channels = layout_and_count
        program = build_program(layout, num_channels)
        for index, row in enumerate(program.channels):
            for slot in row.slots:
                if slot == EMPTY_SLOT:
                    continue
                assert program.channel_of(slot) == index


class TestRefinementObjective:
    @given(
        delta_layouts(),
        st.integers(min_value=2, max_value=4),
        st.sampled_from((0.0, 1.0, 2.5)),
        st.sampled_from((None, 1, 2, 5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_refined_never_scores_worse_than_greedy(
        self, layout, num_channels, retune_cost, region_size
    ):
        # None: the uniform default; otherwise Zipf over regions of
        # ``region_size`` pages, covering as many whole regions as fit.
        if num_channels > layout.total_pages:
            num_channels = layout.total_pages
        probabilities = None
        if region_size is not None and layout.total_pages >= region_size:
            access = layout.total_pages - layout.total_pages % region_size
            probabilities = dict(enumerate(ZipfRegionDistribution(
                access, region_size, 0.95
            ).probabilities().tolist()))
        scores = [
            objective(
                layout,
                assign_channels(
                    layout, num_channels, probabilities=probabilities,
                    assignment=strategy, retune_cost=retune_cost,
                ).channels,
                probabilities=probabilities,
                retune_cost=retune_cost,
            )
            for strategy in ("bandwidth", "conflict")
        ]
        assert scores[1] <= scores[0]
