"""Unit tests for ExperimentConfig (repro.experiments.config)."""

import re

import pytest

from repro.cache.registry import make_policy
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError, ScheduleError
from repro.experiments import config as config_module
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    NOISE_LEVELS,
    ExperimentConfig,
)
from repro.population import Choice, Uniform

NAN, INF = float("nan"), float("inf")


def _bad_inputs():
    """Non-finite or negative inputs, each with the field its error
    must name: before they were checked, some ran to a silent result
    (``think_time=inf`` a mean of nan on ``batch``) and others failed
    deep inside NumPy."""
    for value in (NAN, INF):
        for name in ("think_time", "steady_state_factor", "theta",
                     "drift_rotations"):
            yield pytest.param(
                lambda name=name, value=value: ExperimentConfig(
                    **{name: value}
                ),
                f"{name} must be finite, got {value}",
                id=f"{name}={value}",
            )
        yield pytest.param(
            lambda value=value: ExperimentConfig(channels=2,
                                                 retune_cost=value),
            f"retune_cost must be finite, got {value}",
            id=f"retune_cost={value}",
        )
        yield pytest.param(
            lambda value=value: Choice(("LRU", "LIX"), weights=(value, 1.0)),
            f"Choice weights must be finite, got ({value}, 1.0)",
            id=f"choice-weight={value}",
        )
    yield pytest.param(lambda: ExperimentConfig(warmup_requests=-5),
                       "warmup_requests must be >= 0, got -5",
                       id="warmup_requests=-5")
    yield pytest.param(lambda: Uniform(NAN, 1.0),
                       "Uniform needs finite bounds and span, got [nan, 1.0)",
                       id="uniform-low=nan")
    yield pytest.param(lambda: Uniform(0.0, INF),
                       "Uniform needs finite bounds and span, got [0.0, inf)",
                       id="uniform-high=inf")
    yield pytest.param(
        lambda: Uniform(-1e308, 1e308),
        "Uniform needs finite bounds and span, got [-1e+308, 1e+308)",
        id="uniform-span-overflows",
    )


class TestPresets:
    def test_all_presets_sum_to_server_db_size(self):
        for name, sizes in DISK_PRESETS.items():
            assert sum(sizes) == 5000, name

    def test_paper_preset_values(self):
        assert DISK_PRESETS["D1"] == (500, 4500)
        assert DISK_PRESETS["D2"] == (900, 4100)
        assert DISK_PRESETS["D3"] == (2500, 2500)
        assert DISK_PRESETS["D4"] == (300, 1200, 3500)
        assert DISK_PRESETS["D5"] == (500, 2000, 2500)

    def test_sweep_constants(self):
        assert NOISE_LEVELS == (0.0, 0.15, 0.30, 0.45, 0.60, 0.75)
        assert DELTA_RANGE == tuple(range(8))


class TestDefaults:
    def test_paper_table4_defaults(self):
        config = ExperimentConfig()
        assert config.server_db_size == 5000
        assert config.access_range == 1000
        assert config.think_time == 2.0
        assert config.theta == 0.95
        assert config.region_size == 50
        assert config.num_requests == 15_000

    def test_has_cache(self):
        assert not ExperimentConfig(cache_size=1).has_cache
        assert ExperimentConfig(cache_size=50).has_cache

    def test_describe_mentions_key_knobs(self):
        text = ExperimentConfig(delta=3, policy="LIX").describe()
        assert "Δ=3" in text and "LIX" in text

    def test_label_overrides_describe(self):
        assert ExperimentConfig(label="custom").describe() == "custom"


class TestValidation:
    def test_cache_size(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(cache_size=0)

    def test_think_time(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(think_time=-1.0)

    def test_num_requests(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_requests=0)

    def test_noise_range(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(noise=1.5)

    def test_access_range_within_database(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(disk_sizes=(100,), access_range=1000)

    def test_offset_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(offset=5001)

    def test_cache_that_can_never_fill_rejected(self):
        # Under the §5 rule warm-up waits for a full cache, but only
        # access_range distinct pages are ever requested.
        with pytest.raises(ConfigurationError, match="cache_size 101 .*100"):
            ExperimentConfig(cache_size=101, access_range=100, region_size=10)

    @pytest.mark.parametrize("build, message", _bad_inputs())
    def test_non_finite_or_negative_input_rejected(self, build, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            build()

    def test_explicit_warmup_allows_oversized_cache(self):
        config = ExperimentConfig(
            cache_size=101, access_range=100, region_size=10,
            warmup_requests=50,
        )
        assert config.cache_size > config.access_range


class TestBuilders:
    def test_layout_uses_delta_rule(self):
        config = ExperimentConfig(disk_sizes=(500, 2000, 2500), delta=3)
        assert config.build_layout().rel_freqs == (7, 4, 1)

    def test_explicit_rel_freqs_override_delta(self):
        config = ExperimentConfig(
            disk_sizes=(500, 4500), delta=3, rel_freqs=(3, 2)
        )
        assert config.build_layout().rel_freqs == (3, 2)

    def test_flat_layout_gets_flat_program(self):
        config = ExperimentConfig(disk_sizes=(500, 4500), delta=0)
        schedule = config.build_schedule()
        assert schedule.period == 5000
        assert schedule.empty_slots == 0

    def test_schedule_carries_every_page(self):
        config = ExperimentConfig(disk_sizes=(50, 200, 250), delta=2,
                                  access_range=100, region_size=10)
        schedule = config.build_schedule()
        assert schedule.num_pages == 500

    def test_mapping_respects_offset_and_noise(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, offset=10, noise=0.2,
            access_range=100, region_size=10, seed=1,
        )
        mapping = config.build_mapping()
        assert mapping.offset == 10
        assert mapping.noise == 0.2

    def test_noise_scope_defaults_to_access_range(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.2,
            access_range=100, region_size=10, seed=1,
        )
        assert config.build_mapping().noise_scope == 100

    def test_noise_over_full_database_opt_in(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.2,
            access_range=100, region_size=10, seed=1,
            noise_over_full_database=True,
        )
        assert config.build_mapping().noise_scope == 500

    def test_mapping_deterministic_per_seed(self):
        import numpy as np

        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, noise=0.3,
            access_range=100, region_size=10, seed=5,
        )
        a = config.build_mapping().physical_array()
        b = config.build_mapping().physical_array()
        assert np.array_equal(a, b)

    def test_policy_wiring(self):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=2, cache_size=10,
            policy="PIX", access_range=100, region_size=10,
        )
        layout = config.build_layout()
        schedule = config.build_schedule(layout)
        mapping = config.build_mapping(layout)
        distribution = config.build_distribution()
        policy = config.build_policy(schedule, mapping, distribution, layout)
        assert type(policy).name == "PIX"
        policy.admit(0, 1.0)
        assert 0 in policy

    def test_with_override(self):
        config = ExperimentConfig(delta=1)
        modified = config.with_(delta=5)
        assert modified.delta == 5
        assert config.delta == 1


class TestPolicyOracleTables:
    """``build_policy``'s per-run tables answer as the scalar queries do."""

    #: The oracles each policy reads; build_policy gathers no others.
    ORACLES = {
        "P": {"probability"},
        "PIX": {"probability", "frequency"},
        "LIX": {"disk_of", "frequency"},
        "L": {"disk_of"},
        "LRU": set(),
    }

    @staticmethod
    def context_of(monkeypatch, config, schedule=None):
        """The PolicyContext build_policy hands to make_policy."""
        captured = []

        def capture(name, capacity, context):
            captured.append(context)
            return make_policy(name, capacity, context)

        monkeypatch.setattr(config_module, "make_policy", capture)
        layout = config.build_layout()
        schedule = schedule or config.build_schedule(layout)
        mapping = config.build_mapping(layout)
        distribution = config.build_distribution()
        config.build_policy(schedule, mapping, distribution, layout)
        (context,) = captured
        return context, layout, schedule, mapping, distribution

    @staticmethod
    def config(policy, **overrides):
        return ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=3, cache_size=10,
            policy=policy, noise=0.3, offset=20, access_range=100,
            region_size=10, seed=5, **overrides,
        )

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("policy", sorted(ORACLES))
    def test_tables_equal_scalar_oracles(self, monkeypatch, policy,
                                         channels):
        config = self.config(policy, channels=channels)
        context, layout, schedule, mapping, distribution = self.context_of(
            monkeypatch, config
        )
        gathered = {
            name for name in ("probability", "frequency", "disk_of")
            if getattr(context, name) is not None
        }
        assert gathered == self.ORACLES[policy]
        probabilities = distribution.probabilities()
        # Two pages either side of the access range take the scalar
        # queries themselves (negative pages wrap in the mapping).
        for page in range(-2, config.access_range + 2):
            physical = mapping.to_physical(page)
            if context.probability is not None:
                inside = 0 <= page < config.access_range
                assert context.probability(page) == (
                    float(probabilities[page]) if inside else 0.0
                )
            if context.frequency is not None:
                assert context.frequency(page) == schedule.frequency(physical)
            if context.disk_of is not None:
                assert context.disk_of(page) == layout.disk_of_page(physical)

    # The schedule omits the physical page of logical page 3, as a hole
    # in its frequency table or by ending the table before it.
    @pytest.mark.parametrize("shape", ["hole", "short"])
    def test_unbroadcast_page_raises_schedule_error(self, monkeypatch,
                                                    shape):
        config = self.config("PIX")
        missing = config.build_mapping().to_physical(3)
        assert missing > 0
        schedule = BroadcastSchedule(
            list(range(missing)) if shape == "short" else [
                page for page in range(config.server_db_size)
                if page != missing
            ]
        )
        context, _layout, _schedule, mapping, _distribution = (
            self.context_of(monkeypatch, config, schedule)
        )
        raised = 0
        for page in range(config.access_range):
            physical = mapping.to_physical(page)
            if physical in schedule:
                assert context.frequency(page) == schedule.frequency(physical)
                continue
            with pytest.raises(ScheduleError,
                               match=f"page {physical} never"):
                context.frequency(page)
            raised += 1
        assert raised >= 1
