"""Unit tests for the Offset/Noise logical→physical mapping (§4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.errors import ConfigurationError
from repro.exec.plan import derive_seed
from repro.experiments.config import DISK_PRESETS
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping, _scalar_swaps


@pytest.fixture
def layout():
    return DiskLayout((2, 4, 8), (4, 2, 1))


class TestIdentity:
    def test_identity_without_offset_or_noise(self, layout):
        mapping = LogicalPhysicalMapping(layout)
        for page in range(layout.total_pages):
            assert mapping.to_physical(page) == page
            assert mapping.to_logical(page) == page

    def test_hottest_pages_on_fastest_disk(self, layout):
        mapping = LogicalPhysicalMapping(layout)
        assert mapping.disk_of_logical(0) == 0
        assert mapping.disk_of_logical(1) == 0
        assert mapping.disk_of_logical(2) == 1


class TestOffset:
    def test_offset_is_circular_shift(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=3)
        total = layout.total_pages
        for page in range(total):
            assert mapping.to_physical(page) == (page - 3) % total

    def test_offset_pushes_hottest_to_slowest_disk_tail(self, layout):
        # Figure 4: the K hottest logical pages end up at the end of the
        # slowest disk.
        mapping = LogicalPhysicalMapping(layout, offset=2)
        total = layout.total_pages
        assert mapping.to_physical(0) == total - 2
        assert mapping.to_physical(1) == total - 1
        assert mapping.disk_of_logical(0) == layout.num_disks - 1

    def test_offset_brings_colder_pages_forward(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=2)
        # Logical pages 2,3 now occupy the fastest disk.
        assert mapping.disk_of_logical(2) == 0
        assert mapping.disk_of_logical(3) == 0

    def test_mapping_is_a_bijection(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=5)
        physicals = {mapping.to_physical(p) for p in range(layout.total_pages)}
        assert physicals == set(range(layout.total_pages))

    def test_inverse_consistency(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=5)
        for page in range(layout.total_pages):
            assert mapping.to_logical(mapping.to_physical(page)) == page

    def test_offset_bounds(self, layout):
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(layout, offset=-1)
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(layout, offset=layout.total_pages + 1)

    def test_full_offset_wraps_to_identity(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=layout.total_pages)
        assert mapping.to_physical(0) == 0


class TestNoise:
    def test_noise_requires_rng(self, layout):
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(layout, noise=0.5)

    def test_noise_bounds(self, layout, rng):
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(layout, noise=1.5, rng=rng)

    def test_zero_noise_leaves_identity(self, layout, rng):
        mapping = LogicalPhysicalMapping(layout, noise=0.0, rng=rng)
        assert all(
            mapping.to_physical(p) == p for p in range(layout.total_pages)
        )

    def test_noisy_mapping_is_still_a_bijection(self, layout, rng):
        mapping = LogicalPhysicalMapping(layout, noise=0.7, rng=rng)
        physicals = {mapping.to_physical(p) for p in range(layout.total_pages)}
        assert physicals == set(range(layout.total_pages))

    def test_inverse_consistency_with_noise(self, layout, rng):
        mapping = LogicalPhysicalMapping(layout, noise=0.7, rng=rng)
        for page in range(layout.total_pages):
            assert mapping.to_logical(mapping.to_physical(page)) == page

    def test_displaced_fraction_bounded_by_noise(self):
        # Noise is an upper bound on disagreement (paper footnote 3);
        # statistically the displaced fraction stays below ~2x noise
        # even counting pages dragged along by swaps.
        layout = DiskLayout((100, 200, 300), (4, 2, 1))
        rng = np.random.default_rng(3)
        mapping = LogicalPhysicalMapping(layout, noise=0.15, rng=rng)
        displaced = mapping.displaced_fraction()
        assert 0.0 < displaced < 0.35

    def test_noise_one_scrambles_most_pages(self):
        layout = DiskLayout((100, 200, 300), (4, 2, 1))
        rng = np.random.default_rng(3)
        mapping = LogicalPhysicalMapping(layout, noise=1.0, rng=rng)
        assert mapping.displaced_fraction() > 0.4

    def test_determinism_under_same_rng_seed(self):
        layout = DiskLayout((10, 20), (2, 1))
        a = LogicalPhysicalMapping(layout, noise=0.5, rng=np.random.default_rng(9))
        b = LogicalPhysicalMapping(layout, noise=0.5, rng=np.random.default_rng(9))
        assert np.array_equal(a.physical_array(), b.physical_array())

    def test_physical_array_read_only(self, layout, rng):
        mapping = LogicalPhysicalMapping(layout, noise=0.3, rng=rng)
        with pytest.raises(ValueError):
            mapping.physical_array()[0] = 99

    def test_noise_scope_limits_the_coin(self):
        # With the coin scoped to the first 4 logical pages, any page
        # outside that range may move only by being chosen as a victim —
        # at most one victim per coin-selected page.
        layout = DiskLayout((100, 200, 300), (4, 2, 1))
        rng = np.random.default_rng(3)
        mapping = LogicalPhysicalMapping(
            layout, noise=1.0, rng=rng, noise_scope=4
        )
        moved = sum(
            1
            for page in range(layout.total_pages)
            if mapping.to_physical(page) != page
        )
        assert moved <= 2 * 4

    def test_noise_scope_validation(self, layout, rng):
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(
                layout, noise=0.5, rng=rng, noise_scope=0
            )
        with pytest.raises(ConfigurationError):
            LogicalPhysicalMapping(
                layout, noise=0.5, rng=rng,
                noise_scope=layout.total_pages + 1,
            )

    def test_default_scope_is_whole_database(self, layout, rng):
        mapping = LogicalPhysicalMapping(layout, noise=0.5, rng=rng)
        assert mapping.noise_scope == layout.total_pages


class TestFrequencyMap:
    def test_frequencies_follow_disks(self, layout):
        mapping = LogicalPhysicalMapping(layout)
        schedule = multidisk_program(layout)
        frequencies = mapping.frequency_map(schedule, access_range=6)
        # Pages 0,1 on disk 0 (rel freq 4); 2..5 on disk 1 (rel freq 2).
        assert frequencies[0] == pytest.approx(4 / schedule.period)
        assert frequencies[2] == pytest.approx(2 / schedule.period)

    def test_offset_changes_frequencies(self, layout):
        mapping = LogicalPhysicalMapping(layout, offset=2)
        schedule = multidisk_program(layout)
        frequencies = mapping.frequency_map(schedule, access_range=2)
        # The two hottest logical pages now ride the slowest disk.
        assert frequencies[0] == pytest.approx(1 / schedule.period)


# ---------------------------------------------------------------------------
# Decoded swaps: equal to the scalar loop, draw for draw
# ---------------------------------------------------------------------------

def reference(layout, offset, noise, rng, noise_scope=None):
    """The mapping as the scalar swap loop builds it: ``(physical, inverse)``."""
    total = layout.total_pages
    physical = (np.arange(total, dtype=np.int64) - offset) % total
    inverse = np.empty(total, dtype=np.int64)
    inverse[physical] = np.arange(total, dtype=np.int64)
    if noise > 0.0:
        scope = noise_scope if noise_scope is not None else total
        selected = np.flatnonzero(rng.random(scope) < noise)
        _scalar_swaps(physical, inverse, selected, layout, rng)
    return physical, inverse


def assert_matches_reference(layout, offset, noise, make_rng,
                             noise_scope=None):
    """The mapping, and the generator state it leaves, equal the loop's."""
    rng = make_rng()
    mapping = LogicalPhysicalMapping(layout, offset, noise, rng, noise_scope)
    expected_rng = make_rng()
    physical, inverse = reference(layout, offset, noise, expected_rng,
                                  noise_scope)
    assert np.array_equal(mapping.physical_array(), physical)
    assert np.array_equal(mapping._to_logical, inverse)
    np.testing.assert_equal(rng.bit_generator.state,
                            expected_rng.bit_generator.state)


@st.composite
def noisy_mappings(draw):
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    layout = DiskLayout(sizes, sorted(
        draw(st.lists(st.integers(1, 5), min_size=len(sizes),
                      max_size=len(sizes))),
        reverse=True,
    ))
    total = layout.total_pages
    offset = draw(st.integers(0, total))
    noise = draw(st.floats(0.0, 1.0))
    scope = draw(st.one_of(st.none(), st.integers(1, total)))
    return layout, offset, noise, scope


class TestDecodedSwaps:
    @settings(max_examples=200, deadline=None)
    @given(case=noisy_mappings(), seed=st.integers(0, 2**63 - 1))
    def test_equals_scalar_loop(self, case, seed):
        layout, offset, noise, scope = case
        assert_matches_reference(
            layout, offset, noise, lambda: np.random.default_rng(seed), scope
        )

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox])
    def test_other_bit_generators_take_the_loop(self, bit_generator):
        layout = DiskLayout((30, 60, 90), (3, 2, 1))
        assert_matches_reference(
            layout, 7, 0.5,
            lambda: np.random.Generator(bit_generator(11)),
        )

    def test_buffered_word_takes_the_loop(self):
        def buffered():
            rng = np.random.default_rng(17)
            rng.integers(2)  # leaves the high half of a word buffered
            assert rng.bit_generator.state["has_uint32"] == 1
            return rng

        layout = DiskLayout((30, 60, 90), (3, 2, 1))
        assert_matches_reference(layout, 7, 0.5, buffered)

    @pytest.mark.parametrize("sizes", [(40,), (1, 40), (40, 1, 3)])
    def test_draws_without_a_word_take_the_loop(self, sizes):
        # NumPy draws nothing for integers(1) or integers(s, s + 1).
        layout = DiskLayout(sizes, sorted(range(1, len(sizes) + 1),
                                          reverse=True))
        assert_matches_reference(
            layout, 3, 0.8, lambda: np.random.default_rng(5)
        )

    def test_lemire_rejection_takes_the_loop(self):
        # 2**32 % 3_999_039 = 3_998_449: about 1 victim draw in 1,074
        # on the big disk is rejected and redrawn.
        layout = DiskLayout((2, 3_999_039), (2, 1))
        seed, scope = 5, 40
        rng = np.random.default_rng(seed)
        selected = np.flatnonzero(rng.random(scope) < 1.0)
        words = rng.bit_generator.random_raw(len(selected))
        big_disk = (words & 0xFFFFFFFF) * 2 >> 32 == 1
        leftover = (words >> 32) * 3_999_039 & 0xFFFFFFFF
        assert (big_disk & (leftover < 3_998_449)).any()
        assert_matches_reference(
            layout, 0, 1.0, lambda: np.random.default_rng(seed), scope
        )

    @pytest.mark.parametrize("preset", ["D1", "D2", "D3", "D4", "D5"])
    @pytest.mark.parametrize("noise", [0.15, 0.30, 0.45, 0.75])
    def test_paper_scale(self, preset, noise):
        layout = DiskLayout.from_delta(DISK_PRESETS[preset], 3)
        for index in range(10):
            seed = derive_seed(42, index)
            assert_matches_reference(
                layout, 500, noise,
                lambda: RandomStreams(seed).stream("noise"), 1000,
            )
