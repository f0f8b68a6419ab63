"""Tests for the drifting workload extension (repro.workload.drift)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.drift import DriftingZipfDistribution


def make(rotations=1.0, horizon=1000):
    return DriftingZipfDistribution(
        access_range=100,
        region_size=10,
        theta=0.95,
        horizon=horizon,
        rotations=rotations,
    )


class TestHotRegion:
    def test_no_drift_keeps_region_zero(self):
        distribution = make(rotations=0.0)
        assert distribution.hot_region_at(0) == 0
        assert distribution.hot_region_at(999) == 0

    def test_one_rotation_covers_all_regions(self):
        distribution = make(rotations=1.0, horizon=1000)
        regions = {distribution.hot_region_at(n) for n in range(1000)}
        assert regions == set(range(10))

    def test_rotation_wraps(self):
        distribution = make(rotations=2.0, horizon=1000)
        # After half the horizon, one full rotation is complete.
        assert distribution.hot_region_at(500) == 0

    def test_monotone_progression(self):
        distribution = make(rotations=1.0, horizon=1000)
        assert distribution.hot_region_at(0) == 0
        assert distribution.hot_region_at(100) == 1
        assert distribution.hot_region_at(950) == 9

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            make().hot_region_at(-1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make(horizon=0)
        with pytest.raises(ConfigurationError):
            make(rotations=-1.0)


class TestProbabilities:
    def test_snapshot_is_base_distribution(self):
        distribution = make()
        assert np.allclose(
            distribution.initial_snapshot(),
            distribution.probabilities_at(0),
        )

    def test_rotated_probabilities_are_a_shift(self):
        distribution = make(rotations=1.0, horizon=1000)
        early = distribution.probabilities_at(0)
        later = distribution.probabilities_at(100)  # hotspot at region 1
        assert np.allclose(later, np.roll(early, 10))

    def test_probabilities_always_sum_to_one(self):
        distribution = make(rotations=3.0)
        for index in (0, 123, 500, 999):
            assert distribution.probabilities_at(index).sum() == pytest.approx(1.0)


class TestTraceGeneration:
    def test_trace_length(self, rng):
        trace = make().generate_trace(500, rng)
        assert len(trace) == 500

    def test_no_drift_matches_base_sampling(self):
        distribution = make(rotations=0.0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        drifted = distribution.generate_trace(400, rng_a)
        plain = distribution.base.sample(rng_b, 400)
        assert np.array_equal(drifted.pages, plain)

    def test_drift_moves_the_empirical_hotspot(self, rng):
        distribution = make(rotations=1.0, horizon=10_000)
        trace = distribution.generate_trace(10_000, rng)
        early = trace.pages[:1000]
        late = trace.pages[5000:6000]  # hotspot at region 5
        early_hot = np.mean((early >= 0) & (early < 10))
        late_hot = np.mean((late >= 50) & (late < 60))
        assert early_hot > 0.2
        assert late_hot > 0.2

    def test_pages_stay_in_access_range(self, rng):
        trace = make(rotations=4.0).generate_trace(2000, rng)
        assert trace.pages.max() < 100
        assert trace.pages.min() >= 0

    def test_zero_requests_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            make().generate_trace(0, rng)


class TestDriftInversion:
    def test_frozen_oracle_loses_to_adaptive_estimate(self):
        """§3's scenario, quantified: drift inverts PIX vs LIX."""
        from repro.experiments.figures import drift_study

        data = drift_study(
            num_requests=2_500, rotations_values=(0.0, 2.0),
            policies=("PIX", "LIX"),
        )
        pix = data.series["PIX"]
        lix = data.series["LIX"]
        assert pix[0] < lix[0]   # static world: the ideal wins
        assert lix[1] < pix[1]   # drifting world: adaptation wins


def _frozen_oracle_reference(policy, rotations, *, num_requests, seed,
                             cache_size, delta, noise):
    """One point of §3's frozen-oracle scenario, wired by hand.

    A fast engine over a ``3 * num_requests``-request drifting trace
    drawn from the seed's ``requests`` stream; the policy's probability
    oracle is the t=0 snapshot; the first ``2 * num_requests`` requests
    warm up.
    """
    from repro.cache.base import PolicyContext
    from repro.cache.registry import make_policy
    from repro.experiments.config import DISK_PRESETS, ExperimentConfig
    from repro.experiments.engine import FastEngine

    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"], delta=delta, cache_size=cache_size,
        offset=cache_size, noise=noise, num_requests=num_requests, seed=seed,
    )
    layout = base.build_layout()
    schedule = base.build_schedule(layout)
    streams = base.build_streams()
    mapping = base.build_mapping(layout, streams)
    horizon = 3 * num_requests
    drifting = DriftingZipfDistribution(
        access_range=base.access_range, region_size=base.region_size,
        theta=base.theta, horizon=horizon, rotations=rotations,
    )
    snapshot = drifting.initial_snapshot()
    context = PolicyContext(
        probability=lambda page: (
            float(snapshot[page]) if page < len(snapshot) else 0.0
        ),
        frequency=lambda page: schedule.frequency(mapping.to_physical(page)),
        disk_of=lambda page: layout.disk_of_page(mapping.to_physical(page)),
        num_disks=layout.num_disks,
    )
    engine = FastEngine(
        schedule=schedule, mapping=mapping, layout=layout,
        cache=make_policy(policy, cache_size, context),
        think_time=base.think_time,
    )
    trace = drifting.generate_trace(horizon, streams.stream("requests"))
    outcome = engine.run_trace(trace, warmup_requests=2 * num_requests)
    return outcome.response.mean


class TestDriftStudyIsTheFrozenOracleScenario:
    def test_series_equal_the_hand_wired_runs(self):
        """``drift_rotations`` with a 2N warm-up is §3's scenario, exactly."""
        from repro.experiments.figures import drift_study

        small = dict(num_requests=400, seed=11, cache_size=100, delta=2,
                     noise=0.30)
        rotations = (0.0, 1.5)
        data = drift_study(rotations_values=rotations,
                           policies=("P", "LIX"), **small)
        for policy in ("P", "LIX"):
            assert data.series[policy] == [
                _frozen_oracle_reference(policy, r, **small)
                for r in rotations
            ]
