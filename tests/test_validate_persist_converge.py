"""Tests for program validation and convergence control."""

import pytest

from repro.core.disks import DiskLayout
from repro.core.programs import (
    _clustered_skewed_program as clustered_skewed_program,
    _flat_program as flat_program,
    _multidisk_program as multidisk_program,
)
from repro.core.schedule import BroadcastSchedule
from repro.core.validate import validate_program
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.convergence import run_until_converged
from repro.experiments.runner import run_experiment


class TestValidateProgram:
    def test_multidisk_program_passes_all_desiderata(self):
        layout = DiskLayout((2, 4, 8), (4, 2, 1))
        report = validate_program(multidisk_program(layout))
        assert report.has_fixed_interarrivals
        assert report.total_bus_stop_penalty == 0.0
        assert "fixed inter-arrival times: yes" in report.summary()

    def test_clustered_program_flagged(self):
        program = clustered_skewed_program({0: 2, 1: 1, 2: 1})
        report = validate_program(program)
        assert not report.has_fixed_interarrivals
        assert 0 in report.variable_gap_pages
        assert report.variable_gap_pages[0] == pytest.approx(0.25)
        assert "NO" in report.summary()

    def test_effective_period_detects_repetition(self):
        doubled = BroadcastSchedule([0, 1, 2, 0, 1, 2])
        report = validate_program(doubled)
        assert report.period == 6
        assert report.effective_period == 3
        assert not report.is_tight
        assert "effective 3" in report.summary()

    def test_flat_program_is_tight(self):
        report = validate_program(flat_program(7))
        assert report.is_tight
        assert report.utilisation == 1.0

    def test_heavy_padding_noted(self):
        layout = DiskLayout((1, 9), (9, 1))  # 9 chunks of 1 page: no pad
        padded = DiskLayout((1, 10), (7, 1))  # 10/7 -> chunks of 2, 4 pads
        report = validate_program(multidisk_program(padded))
        if report.utilisation < 0.95:
            assert any("padding" in note for note in report.notes)
        # Sanity: the cleaner layout gives full utilisation.
        clean = validate_program(multidisk_program(layout))
        assert clean.utilisation > report.utilisation - 1e-9


class TestConvergence:
    def small_config(self, **overrides):
        base = dict(
            disk_sizes=(50, 200, 250),
            delta=3,
            cache_size=50,
            policy="LIX",
            noise=0.30,
            offset=50,
            access_range=100,
            region_size=10,
            num_requests=500,
            seed=7,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_converges_on_steady_configuration(self):
        result = run_until_converged(
            self.small_config(), chunk=800, window_chunks=4,
            rtol=0.10, max_requests=40_000,
        )
        assert result.converged
        assert result.requests_measured >= 4 * 800
        assert result.mean_response_time > 0
        # One channel never retunes, so no retune cost reaches this
        # pinned result.
        assert (result.mean_response_time, result.requests_measured,
                result.chunks_run, result.window_mean) == (
            48.82625000000001, 5600, 7, 45.8696875
        )

    def test_cap_reported_when_not_converged(self):
        result = run_until_converged(
            self.small_config(), chunk=500, window_chunks=6,
            rtol=1e-9,  # impossible tolerance
            max_requests=3_000,
        )
        assert not result.converged
        assert "CAP HIT" in result.summary()

    def test_converged_mean_close_to_fixed_protocol(self):
        converged = run_until_converged(
            self.small_config(), chunk=1000, window_chunks=4,
            rtol=0.05, max_requests=60_000,
        )
        fixed = run_experiment(self.small_config(num_requests=8_000))
        assert converged.mean_response_time == pytest.approx(
            fixed.mean_response_time, rel=0.25
        )

    @pytest.mark.parametrize("warmup", [120, 0])
    def test_warms_with_the_configs_warmup_count(self, warmup,
                                                 monkeypatch):
        # A fixed warm-up count sets both the warm-up trace's length and
        # the warm-up rule, as it does for a plan; 0 warms nothing.
        from repro.experiments.engine import FastEngine

        calls = []
        run_trace = FastEngine.run_trace

        def recording(engine, trace, **kwargs):
            calls.append((len(trace), kwargs.get("warmup_requests")))
            return run_trace(engine, trace, **kwargs)

        monkeypatch.setattr(FastEngine, "run_trace", recording)
        run_until_converged(
            self.small_config(warmup_requests=warmup), chunk=200,
            window_chunks=2, rtol=1.0, max_requests=400,
        )
        expected = [(200, 0)] if warmup == 0 else [(warmup, warmup), (200, 0)]
        assert calls[:len(expected)] == expected

    def test_multichannel_charges_the_configs_retune_cost(self):
        # On C=2 every channel switch waits ``retune_cost``, as in
        # ``run_experiment``.
        config = self.small_config(channels=2, cache_size=1, noise=0.0,
                                   offset=0)
        options = dict(chunk=2_000, window_chunks=2, rtol=1.0,
                       max_requests=2_000)
        cheap = run_until_converged(config, **options)
        dear = run_until_converged(config.with_(retune_cost=5.0), **options)
        assert dear.mean_response_time > cheap.mean_response_time
        assert run_experiment(config.with_(retune_cost=5.0)).retunes > 0

    def test_drift_rejected(self):
        # A rotating hotspot has no steady state to converge to.
        with pytest.raises(ConfigurationError, match="drift_rotations"):
            run_until_converged(self.small_config(drift_rotations=4.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_until_converged(self.small_config(), chunk=0)
        with pytest.raises(ConfigurationError):
            run_until_converged(self.small_config(), window_chunks=1)
        with pytest.raises(ConfigurationError):
            run_until_converged(
                self.small_config(), chunk=100, max_requests=50
            )
