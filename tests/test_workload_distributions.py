"""Unit tests for access distributions (repro.workload.distributions/zipf)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.distributions import (
    _GUIDE_BINS,
    ExplicitDistribution,
    UniformDistribution,
)
from repro.workload.zipf import ZipfRegionDistribution


class StubGenerator:
    """Serves fixed uniform draws to :meth:`AccessDistribution.sample`."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size):
        assert size == len(self.draws)
        return self.draws


class TestUniform:
    def test_probabilities_equal(self):
        distribution = UniformDistribution(4)
        assert np.allclose(distribution.probabilities(), 0.25)

    def test_probability_outside_range_is_zero(self):
        distribution = UniformDistribution(4)
        assert distribution.probability(10) == 0.0
        assert distribution.probability(-1) == 0.0

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            UniformDistribution(0)

    def test_sampling_covers_range(self, rng):
        distribution = UniformDistribution(8)
        samples = distribution.sample(rng, 4000)
        assert set(np.unique(samples)) == set(range(8))

    def test_sample_one(self, rng):
        distribution = UniformDistribution(8)
        assert 0 <= distribution.sample_one(rng) < 8


class TestExplicit:
    def test_normalisation(self):
        distribution = ExplicitDistribution([2.0, 2.0])
        assert np.allclose(distribution.probabilities(), [0.5, 0.5])

    def test_zero_weight_pages_never_sampled(self, rng):
        distribution = ExplicitDistribution([1.0, 0.0, 1.0])
        samples = distribution.sample(rng, 2000)
        assert 1 not in samples

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitDistribution([1.0, -0.5])

    def test_zero_mass_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitDistribution([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplicitDistribution([])

    def test_probability_map_skips_zero_pages(self):
        distribution = ExplicitDistribution([1.0, 0.0, 3.0])
        assert set(distribution.probability_map()) == {0, 2}

    def test_empirical_frequencies_match(self, rng):
        distribution = ExplicitDistribution([0.7, 0.3])
        samples = distribution.sample(rng, 40_000)
        assert np.mean(samples == 0) == pytest.approx(0.7, abs=0.02)

    def test_zero_probability_tail_never_sampled(self):
        # cumsum leaves cdf[9] at 1 - 2**-53, a value random() can return.
        distribution = ExplicitDistribution([0.1] * 10 + [0.0])
        top = 1.0 - 2.0**-53
        assert distribution.sample(StubGenerator([top]), 1).tolist() == [9]


class TestZipfRegions:
    def test_probabilities_sum_to_one(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        assert distribution.probabilities().sum() == pytest.approx(1.0)

    def test_uniform_within_region(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        probabilities = distribution.probabilities()
        for region in range(10):
            chunk = probabilities[region * 10 : (region + 1) * 10]
            assert np.allclose(chunk, chunk[0])

    def test_region_masses_follow_zipf(self):
        theta = 0.95
        distribution = ZipfRegionDistribution(100, 10, theta)
        mass_1 = distribution.region_probability(0)
        mass_2 = distribution.region_probability(1)
        assert mass_1 / mass_2 == pytest.approx(2.0**theta)

    def test_theta_zero_is_uniform(self):
        distribution = ZipfRegionDistribution(100, 10, 0.0)
        assert np.allclose(distribution.probabilities(), 0.01)

    def test_skew_grows_with_theta(self):
        mild = ZipfRegionDistribution(100, 10, 0.5)
        strong = ZipfRegionDistribution(100, 10, 1.5)
        assert strong.probability(0) > mild.probability(0)

    def test_page_zero_is_hottest(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        probabilities = distribution.probabilities()
        assert probabilities[0] == probabilities.max()
        assert probabilities[-1] == probabilities.min()

    def test_region_of(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        assert distribution.region_of(0) == 0
        assert distribution.region_of(9) == 0
        assert distribution.region_of(10) == 1
        assert distribution.region_of(99) == 9

    def test_region_of_out_of_range(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        with pytest.raises(ConfigurationError):
            distribution.region_of(100)

    def test_region_probability_out_of_range(self):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        with pytest.raises(ConfigurationError):
            distribution.region_probability(10)

    def test_nondivisible_region_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfRegionDistribution(100, 30, 0.95)

    def test_negative_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfRegionDistribution(100, 10, -0.1)

    def test_paper_parameters(self):
        distribution = ZipfRegionDistribution(1000, 50, 0.95)
        assert distribution.num_regions == 20
        assert distribution.probabilities().sum() == pytest.approx(1.0)

    def test_sampling_matches_probabilities(self, rng):
        distribution = ZipfRegionDistribution(100, 10, 0.95)
        samples = distribution.sample(rng, 50_000)
        empirical_region0 = np.mean(samples < 10)
        assert empirical_region0 == pytest.approx(
            distribution.region_probability(0), abs=0.02
        )


SAMPLED = {
    **{f"zipf-theta{theta}-region{region}":
       ZipfRegionDistribution(1000, region, theta)
       for theta in (0.0, 0.95, 1.5) for region in (1, 50, 1000)},
    "uniform-7": UniformDistribution(7),
    "uniform-5000": UniformDistribution(5000),
    "explicit-zero-runs": ExplicitDistribution(
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0]
    ),
    "explicit-zero-tail": ExplicitDistribution([0.1] * 10 + [0.0] * 5),
    "explicit-tiny-masses": ExplicitDistribution(
        [0.0] * 3 + [1e-9, 1.0, 0.0, 1e-9] + [0.0] * 4
    ),
}


def adversarial_draws(cdf):
    """Every CDF value and bin edge, with their neighbours, inside [0, 1)."""
    edges = np.arange(_GUIDE_BINS) / _GUIDE_BINS
    draws = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        edges, np.nextafter(edges, -1.0), [0.0, 1.0 - 2.0**-53],
    ])
    return draws[(draws >= 0.0) & (draws < 1.0)]


class TestGuideTableSampling:
    """``sample`` is exactly ``searchsorted(cdf, u, side="right")``."""

    @pytest.mark.parametrize("distribution", list(SAMPLED.values()),
                             ids=list(SAMPLED))
    def test_equals_searchsorted_on_random_draws(self, distribution):
        draws = np.random.default_rng(8).random(50_000)
        pages = distribution.sample(StubGenerator(draws), len(draws))
        expected = np.searchsorted(distribution._cdf(), draws, side="right")
        assert pages.dtype == np.int64
        assert np.array_equal(pages, expected)

    @pytest.mark.parametrize("distribution", list(SAMPLED.values()),
                             ids=list(SAMPLED))
    def test_equals_searchsorted_on_adversarial_draws(self, distribution):
        cdf = distribution._cdf()
        draws = adversarial_draws(cdf)
        pages = distribution.sample(StubGenerator(draws), len(draws))
        assert np.array_equal(
            pages, np.searchsorted(cdf, draws, side="right")
        )
        probabilities = distribution.probabilities()
        assert (probabilities[pages] > 0.0).all()

    def test_same_generator_state_as_searchsorted(self, rng):
        distribution = ZipfRegionDistribution(1000, 50, 0.95)
        twin = np.random.default_rng(1234)
        pages = distribution.sample(rng, 6000)
        expected = np.searchsorted(
            distribution._cdf(), twin.random(6000), side="right"
        )
        assert np.array_equal(pages, expected)
        assert rng.bit_generator.state == twin.bit_generator.state
