"""Multi-channel broadcast programs: assignment, tuning, equivalence.

The contract under test, end to end:

* the channel assignment partitions the single-channel page set — no
  page on two channels, no page dropped — and C=1 reduces
  byte-identically to the legacy single-channel schedule;
* the conflict-aware refinement never does worse than the greedy
  bandwidth split under its own objective;
* the fast engine, the process (SimPy-style) engine, the reference
  engine and the batch entry point agree sample-for-sample (and
  retune-for-retune) on multi-channel runs;
* the observability layer carries the channel dimension: the
  manifest's per-channel ``channel_utilisation`` and retune count,
  monitor-clean strict runs, and journal round-trips.
"""

import collections
import json

import pytest

import repro
from repro.core.channels import (
    ASSIGNMENT_STRATEGIES,
    ChannelAssignment,
    _greedy_split,
    _page_freqs,
    assign_channels,
    build_program,
    channel_schedule,
    objective,
)
from repro.core.disks import DiskLayout
from repro.core.programs import ProgramSpec, _multidisk_program
from repro.core.schedule import BroadcastProgram
from repro.errors import ConfigurationError
from repro.exec.build import structural_key
from repro.exec.run import result_from_state, result_state
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    ExperimentConfig,
)
from repro.experiments.engine import FastEngine
from repro.experiments.runner import run_experiment
from repro.obs.monitor import MonitorSuite
from repro.obs.trace import Tracer
from repro.population import PopulationSpec, SegmentSpec, run_population

LAYOUT = DiskLayout.from_delta((2, 4, 8), 3)


def config(**overrides):
    base = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=400,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestAssignment:
    def test_single_channel_is_identity(self):
        assignment = assign_channels(LAYOUT, 1)
        assert assignment.channels == (tuple(range(LAYOUT.total_pages)),)

    @pytest.mark.parametrize("num_channels", [2, 3, 4])
    @pytest.mark.parametrize("strategy", ASSIGNMENT_STRATEGIES)
    def test_partition_property(self, num_channels, strategy):
        assignment = assign_channels(
            LAYOUT, num_channels, assignment=strategy
        )
        pages = [p for channel in assignment.channels for p in channel]
        assert sorted(pages) == list(range(LAYOUT.total_pages))
        assert all(assignment.channels)  # no empty channel

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            assign_channels(LAYOUT, 0)
        with pytest.raises(ConfigurationError):
            assign_channels(LAYOUT, LAYOUT.total_pages + 1)
        with pytest.raises(ConfigurationError):
            assign_channels(LAYOUT, 2, assignment="mystery")
        with pytest.raises(ConfigurationError):
            assign_channels(LAYOUT, 2, retune_cost=-1.0)

    def test_refinement_deterministic(self):
        first = assign_channels(LAYOUT, 3)
        second = assign_channels(LAYOUT, 3)
        assert first.channels == second.channels

    @pytest.mark.parametrize("preset", sorted(DISK_PRESETS))
    def test_greedy_split_picks_the_lowest_least_loaded_channel(self, preset):
        # The split's rule, written as a keyed min over (load, index),
        # over every Δ of the preset and C = 2..4.
        for delta in DELTA_RANGE:
            layout = DiskLayout.from_delta(DISK_PRESETS[preset], delta)
            freqs = _page_freqs(layout)
            for num_channels in (2, 3, 4):
                loads = [0] * num_channels
                expected = [[] for _ in range(num_channels)]
                for page in range(layout.total_pages):
                    target = min(
                        range(num_channels), key=lambda c: (loads[c], c)
                    )
                    expected[target].append(page)
                    loads[target] += freqs[page]
                assert _greedy_split(layout, num_channels) == expected

    @pytest.mark.parametrize("preset", sorted(DISK_PRESETS))
    def test_refinement_never_worse_than_greedy_split(self, preset):
        # The climb commits only moves that lower its objective, so the
        # refined split scores at most what the greedy split scores,
        # and below it on some of the preset's cases.
        strictly_better = 0
        for delta in DELTA_RANGE:
            layout = DiskLayout.from_delta(DISK_PRESETS[preset], delta)
            estimate = ExperimentConfig(
                disk_sizes=DISK_PRESETS[preset], delta=delta
            )._server_probabilities(layout)
            for num_channels in (2, 3, 4):
                for retune_cost in (0.0, 1.0, 2.5):
                    scores = [
                        objective(
                            layout,
                            assign_channels(
                                layout, num_channels,
                                probabilities=estimate,
                                assignment=strategy,
                                retune_cost=retune_cost,
                            ).channels,
                            probabilities=estimate,
                            retune_cost=retune_cost,
                        )
                        for strategy in ("bandwidth", "conflict")
                    ]
                    assert scores[1] <= scores[0]
                    strictly_better += scores[1] < scores[0]
        assert strictly_better > 0

    def test_objective_prices_delay_and_retunes(self):
        # Two one-page channels of a flat layout: each page waits half
        # its channel's one-slot period, and a miss retunes with
        # probability 1 - (0.25^2 + 0.75^2) = 0.375.
        layout = DiskLayout((2,), (1,))
        estimate = {0: 0.25, 1: 0.75}
        channels = ((0,), (1,))
        assert objective(layout, channels, probabilities=estimate,
                         retune_cost=0.0) == 0.5
        assert objective(layout, channels, probabilities=estimate,
                         retune_cost=2.0) == 0.5 + 2.0 * 0.375

    @pytest.mark.parametrize("estimate,message", [
        ({0: float("nan")}, r"page 0 is nan.*\[0, 1\]"),
        ({3: float("inf")}, r"page 3 is inf.*\[0, 1\]"),
        ({5: -0.1}, r"page 5 is -0.1.*\[0, 1\]"),
        ({5: 1.5}, r"page 5 is 1.5.*\[0, 1\]"),
        ({14: 0.1}, r"0.1 given for page 14.*\[0, 14\)"),
        ({-1: 0.1}, r"0.1 given for page -1.*\[0, 14\)"),
        ({2.5: 0.1}, r"0.1 given for page 2.5.*\[0, 14\)"),
    ])
    def test_rejects_bad_probability_estimates(self, estimate, message):
        # Unchecked, NaN or inf would return the greedy split, a negative
        # value would steer the climb, and stray keys would be dropped.
        with pytest.raises(ConfigurationError, match=message):
            assign_channels(LAYOUT, 2, probabilities=estimate)
        with pytest.raises(ConfigurationError, match=message):
            ProgramSpec(sizes=LAYOUT.sizes, rel_freqs=LAYOUT.rel_freqs,
                        channels=2, probabilities=estimate).build()
        with pytest.raises(ConfigurationError, match=message):
            objective(LAYOUT, assign_channels(LAYOUT, 2).channels,
                      probabilities=estimate)

    def test_assignment_channel_map(self):
        assignment = assign_channels(LAYOUT, 2)
        mapping = assignment.channel_map()
        assert sorted(mapping) == list(range(LAYOUT.total_pages))
        for index, channel in enumerate(assignment.channels):
            for page in channel:
                assert mapping[page] == index


class TestProgramConstruction:
    def test_c1_byte_identical_to_legacy(self):
        program = build_program(LAYOUT, 1)
        legacy = _multidisk_program(LAYOUT)
        assert program.channels[0].slots == legacy.slots

    @pytest.mark.parametrize("num_channels", [2, 3, 4])
    def test_broadcast_partition_per_cycle(self, num_channels):
        # Union of channel rows == single-channel page multiset: every
        # page keeps its per-cycle broadcast count (its Δ-rule relative
        # frequency) on the row that carries it.
        program = build_program(LAYOUT, num_channels)
        legacy = _multidisk_program(LAYOUT)
        for page in range(LAYOUT.total_pages):
            row = program.schedule_of(page)
            assert row.broadcasts_per_period(page) == \
                legacy.broadcasts_per_period(page)

    def test_every_page_has_fixed_gap(self):
        program = build_program(LAYOUT, 3)
        for page in range(LAYOUT.total_pages):
            assert program.fixed_gap(page) is not None

    def test_program_properties(self):
        program = build_program(LAYOUT, 2, label="demo")
        assert program.num_channels == 2
        assert len(program) == program.period
        assert program.num_pages == LAYOUT.total_pages
        assert program.period == max(row.period for row in program.channels)
        assert program.total_slots == sum(
            row.period for row in program.channels
        )
        utilisation = program.channel_utilisation()
        assert len(utilisation) == 2
        assert all(0.0 < value <= 1.0 for value in utilisation)
        assert 5 in program
        assert program.channel_of(5) in (0, 1)

    def test_rejects_overlapping_channels(self):
        from repro.errors import ScheduleError

        rows = (
            channel_schedule(LAYOUT, (0, 1, 2, 3)),
            channel_schedule(LAYOUT, (3, 4, 5)),
        )
        with pytest.raises(ScheduleError, match="partition"):
            BroadcastProgram(rows)

    def test_channel_schedule_translates_pages(self):
        pages = (1, 5, 9, 13)
        row = channel_schedule(LAYOUT, pages)
        broadcast = {slot for slot in row.slots if slot >= 0}
        assert broadcast == set(pages)

    @pytest.mark.parametrize("pages", [(-1, 2), (3, 14)])
    def test_channel_schedule_rejects_pages_outside_the_layout(self, pages):
        with pytest.raises(ConfigurationError, match=r"\[0, 14\)"):
            channel_schedule(LAYOUT, pages)

    def test_next_arrival_delegates_to_owning_row(self):
        program = build_program(LAYOUT, 2)
        for page in (0, 7, 13):
            row = program.schedule_of(page)
            assert program.next_arrival(page, 2.5) == \
                row.next_arrival(page, 2.5)
            assert program.next_arrival_bisect(page, 2.5) == \
                row.next_arrival_bisect(page, 2.5)


class TestEngineEquivalence:
    @pytest.mark.parametrize("channels", [2, 4])
    def test_fast_process_reference_batch_agree(self, channels):
        cfg = config(channels=channels)
        results = {
            engine: run_experiment(
                cfg, engine=engine, collect_responses=True
            )
            for engine in ("fast", "process", "fast-reference", "batch")
        }
        baseline = results["fast"]
        assert baseline.retunes > 0
        for engine, result in results.items():
            assert result.samples == baseline.samples, engine
            assert result.retunes == baseline.retunes, engine
            assert result.mean_response_time == \
                baseline.mean_response_time, engine

    def test_c1_run_matches_legacy_exactly(self):
        implicit = run_experiment(config(), engine="fast",
                                  collect_responses=True)
        explicit = run_experiment(config(channels=1), engine="fast",
                                  collect_responses=True)
        assert implicit.samples == explicit.samples
        assert implicit.retunes == 0
        assert implicit.channel_utilisation is None

    def test_more_channels_strictly_faster(self):
        means = {
            channels: run_experiment(
                config(channels=channels), engine="fast"
            ).mean_response_time
            for channels in (1, 2, 4)
        }
        assert means[2] < means[1]
        assert means[4] < means[1]

    def test_fast_engine_rejects_negative_retune_cost(self):
        from repro.workload.mapping import LogicalPhysicalMapping

        program = build_program(LAYOUT, 2)
        mapping = LogicalPhysicalMapping(LAYOUT)
        # Validation fires before the cache is touched, so a placeholder
        # policy object is enough to exercise the contract.
        with pytest.raises(ConfigurationError):
            FastEngine(program, mapping, LAYOUT, None, 0.0,
                       retune_cost=-0.5)


class TestObservability:
    def test_strict_monitors_pass_fast_and_process(self):
        for engine in ("fast", "process"):
            monitors = MonitorSuite(mode="strict")
            result = run_experiment(
                config(channels=4, num_requests=300),
                engine=engine, tracer=Tracer(monitors),
            )
            assert monitors.ok
            assert result.retunes > 0

    def test_per_channel_metrics_recorded(self, tmp_path):
        path = tmp_path / "run.json"
        result = run_experiment(
            config(channels=2), engine="fast", manifest=str(path)
        )
        manifest = json.loads(path.read_text())
        assert "metrics" not in manifest
        assert manifest["retunes"] == result.retunes > 0
        assert manifest["channel_utilisation"] == list(
            result.channel_utilisation
        )
        assert len(manifest["channel_utilisation"]) == 2

    def test_result_state_round_trip(self):
        cfg = config(channels=2)
        result = run_experiment(cfg, engine="fast", collect_responses=True)
        restored = result_from_state(cfg, result_state(result))
        assert restored.retunes == result.retunes
        assert restored.channel_utilisation == result.channel_utilisation
        assert restored.samples == result.samples

    def test_old_journal_state_still_loads(self):
        cfg = config()
        result = run_experiment(cfg, engine="fast")
        state = result_state(result)
        # A 1.1-era journal predates the channel fields entirely.
        state.pop("retunes")
        state.pop("channel_utilisation")
        restored = result_from_state(cfg, state)
        assert restored.retunes == 0
        assert restored.channel_utilisation is None

    def test_structural_key_unchanged_for_single_channel(self):
        assert structural_key(config()) == \
            structural_key(config(channels=1))
        assert structural_key(config()) != \
            structural_key(config(channels=2))

    def test_manifest_carries_channel_block(self):
        from repro.obs.manifest import build_manifest

        single = build_manifest(run_experiment(config(), engine="fast"))
        assert "retunes" not in single
        assert "channel_utilisation" not in single
        multi = build_manifest(
            run_experiment(config(channels=2), engine="fast")
        )
        assert multi["retunes"] > 0
        assert len(multi["channel_utilisation"]) == 2


class TestPopulationIntegration:
    def test_population_runs_with_channels(self):
        spec = PopulationSpec(
            name="multichannel-fleet",
            base=config(channels=2, num_requests=200),
            segments=(
                SegmentSpec(name="small", clients=2, cache_size=25),
                SegmentSpec(name="large", clients=2, cache_size=60),
            ),
            seed=3,
        )
        population = run_population(spec, keep_results=True)
        assert len(population.results) == 4
        assert all(r.retunes > 0 for r in population.results)


class TestConfigValidation:
    def test_channels_bounds(self):
        with pytest.raises(ConfigurationError):
            config(channels=0)
        with pytest.raises(ConfigurationError):
            config(channels=501)
        with pytest.raises(ConfigurationError):
            config(retune_cost=-1.0)

    def test_build_schedule_types(self):
        single = config()
        assert isinstance(single.build_schedule(single.build_layout()),
                          repro.BroadcastSchedule)
        multi = config(channels=2)
        program = multi.build_schedule(multi.build_layout())
        assert isinstance(program, BroadcastProgram)
