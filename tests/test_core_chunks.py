"""Unit tests for the LCM chunking arithmetic (repro.core.chunks)."""

import time

import pytest

from repro.core.chunks import EMPTY_SLOT, MAX_PERIOD, ChunkPlan, lcm_many
from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.experiments.runner import run_experiment


class TestLcmMany:
    def test_single_value(self):
        assert lcm_many([7]) == 7

    def test_coprime_values(self):
        assert lcm_many([3, 4]) == 12

    def test_shared_factors(self):
        assert lcm_many([4, 6]) == 12

    def test_paper_example(self):
        # Figure 3 uses rel freqs 4, 2, 1 -> LCM 4.
        assert lcm_many([4, 2, 1]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            lcm_many([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            lcm_many([2, 0])


class TestFigure3Example:
    """The worked example of the paper's Figure 3.

    Three disks with rel freqs 4, 2, 1: max_chunks=4, num_chunks=(1,2,4).
    With sizes (1, 2, 4) every chunk holds exactly one page and the major
    cycle has 4 minor cycles of 3 slots each.
    """

    @pytest.fixture
    def plan(self):
        return ChunkPlan.for_layout(DiskLayout((1, 2, 4), (4, 2, 1)))

    def test_max_chunks(self, plan):
        assert plan.max_chunks == 4

    def test_num_chunks(self, plan):
        assert plan.num_chunks == (1, 2, 4)

    def test_chunk_sizes(self, plan):
        assert plan.chunk_sizes == (1, 1, 1)

    def test_minor_cycle_length(self, plan):
        assert plan.minor_cycle_length == 3

    def test_period(self, plan):
        assert plan.period == 12

    def test_no_padding(self, plan):
        assert plan.padding_slots == 0
        assert plan.utilisation == 1.0

    def test_interleave_structure(self, plan):
        # Pages: disk1={0}, disk2={1,2}, disk3={3,4,5,6}.
        # Minor cycles: (0,1,3) (0,2,4) (0,1,5) (0,2,6).
        assert plan.interleave() == [0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 2, 6]


class TestPadding:
    def test_uneven_split_pads_with_empty_slots(self):
        # Disk of 3 pages split into 2 chunks -> chunk size 2, 1 pad slot.
        layout = DiskLayout((1, 3), (2, 1))
        plan = ChunkPlan.for_layout(layout)
        assert plan.chunk_sizes == (1, 2)
        assert plan.padding_slots == 1
        slots = plan.interleave()
        assert slots.count(EMPTY_SLOT) == 1

    def test_padding_preserves_fixed_chunk_length(self):
        layout = DiskLayout((2, 5), (3, 1))
        plan = ChunkPlan.for_layout(layout)
        chunks = plan.chunks_for_disk(1)
        assert len(chunks) == plan.num_chunks[1]
        assert len({len(chunk) for chunk in chunks}) == 1  # equal lengths

    def test_utilisation_accounts_padding(self):
        layout = DiskLayout((1, 3), (2, 1))
        plan = ChunkPlan.for_layout(layout)
        assert plan.utilisation == pytest.approx(1.0 - 1.0 / plan.period)

    def test_every_page_appears_rel_freq_times(self):
        layout = DiskLayout((2, 3, 7), (6, 2, 1))
        plan = ChunkPlan.for_layout(layout)
        slots = plan.interleave()
        for disk in range(layout.num_disks):
            for page in layout.pages_on_disk(disk):
                assert slots.count(page) == layout.rel_freqs[disk]

    def test_interleave_length_equals_period(self):
        layout = DiskLayout((3, 4, 5), (10, 5, 2))
        plan = ChunkPlan.for_layout(layout)
        assert len(plan.interleave()) == plan.period


class TestChunkContents:
    def test_pages_fill_chunks_in_order(self):
        layout = DiskLayout((1, 4), (2, 1))
        plan = ChunkPlan.for_layout(layout)
        chunks = plan.chunks_for_disk(1)
        assert chunks == [[1, 2], [3, 4]]

    def test_single_disk_flat_plan(self):
        layout = DiskLayout.flat(5)
        plan = ChunkPlan.for_layout(layout)
        assert plan.max_chunks == 1
        assert plan.period == 5
        assert plan.interleave() == [0, 1, 2, 3, 4]

    def test_paper_scale_d5_delta_3(self):
        # D5 <500,2000,2500> at delta 3 -> rel freqs 7,4,1, LCM 28.
        layout = DiskLayout.from_delta((500, 2000, 2500), delta=3)
        plan = ChunkPlan.for_layout(layout)
        assert layout.rel_freqs == (7, 4, 1)
        assert plan.max_chunks == 28
        assert plan.num_chunks == (4, 7, 28)
        # 500/4=125, 2000/7=285.71->286, 2500/28=89.28->90
        assert plan.chunk_sizes == (125, 286, 90)
        assert plan.period == 28 * (125 + 286 + 90)


class TestPeriodCap:
    """A period above ``MAX_PERIOD`` fails before any slot is built."""

    @pytest.mark.parametrize("disks, period", [
        (22, 5_121_436_320),
        (16, 11_531_520),
    ])
    def test_one_page_disks_rejected_fast(self, disks, period):
        config = ExperimentConfig(
            disk_sizes=(1,) * disks, delta=1, access_range=disks,
            region_size=1,
        )
        started = time.perf_counter()
        with pytest.raises(ConfigurationError) as error:
            run_experiment(config)
        assert time.perf_counter() - started < 0.5
        message = str(error.value)
        assert f"{period:,} slots" in message
        assert f"cap of {MAX_PERIOD:,}" in message
        assert config.build_layout().describe() in message

    def test_cap_itself_is_accepted(self):
        plan = ChunkPlan.for_layout(DiskLayout.flat(MAX_PERIOD))
        assert plan.period == MAX_PERIOD
        with pytest.raises(ConfigurationError, match="4,194,305 slots"):
            ChunkPlan.for_layout(DiskLayout.flat(MAX_PERIOD + 1))

    @pytest.mark.parametrize("preset", sorted(DISK_PRESETS))
    def test_paper_programs_build(self, preset):
        # Every preset x delta 0-7 x 1-4 channels stays far below the
        # cap (the largest period is 26,160 slots).
        for delta in range(8):
            for channels in range(1, 5):
                config = ExperimentConfig(
                    disk_sizes=DISK_PRESETS[preset], delta=delta,
                    channels=channels,
                )
                assert config.build_schedule().period <= 26_160
