"""The public API surface, pinned.

Three protections for the 1.1 consolidation:

* an ``inspect``-based snapshot of ``repro.__all__`` and of the
  keyword-only contract on the public entry points, so an accidental
  signature regression (an option drifting back to positional) fails
  here before it reaches a caller;
* the end of the one-release positional shim (removed in 1.4): a
  positional option is a ``TypeError``, and keyword calls never warn;
* the engine names: every rejection lists the four plan engines.
"""

import inspect
import warnings

import pytest

import repro
from repro.errors import ConfigurationError
from repro.exec.plan import ENGINES, RunPlan
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, sweep_results
from repro.population import run_population

EXPECTED_ALL = [
    "BroadcastProgram",
    "BroadcastSchedule",
    "ConfigurationError",
    "DISK_PRESETS",
    "DiskLayout",
    "ExperimentConfig",
    "ExperimentResult",
    "LogicalPhysicalMapping",
    "MonitorError",
    "MonitorSuite",
    "PolicyError",
    "PopulationResult",
    "PopulationSpec",
    "Profiler",
    "ProgramSpec",
    "ReproError",
    "ScheduleError",
    "SegmentSpec",
    "SimulationError",
    "Tracer",
    "ZipfRegionDistribution",
    "__version__",
    "available_policies",
    "make_policy",
    "run_clients",
    "run_experiment",
    "run_population",
    "sweep_results",
]


def small_config(**overrides):
    base = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=200,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExportSnapshot:
    def test_all_matches_snapshot(self):
        assert repro.__all__ == EXPECTED_ALL

    def test_all_is_sorted_and_unique(self):
        assert repro.__all__ == sorted(set(repro.__all__))

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.12.0"

    def test_engines_report_for_themselves(self):
        # 1.11.0: every engine's loop emits its own cache.* records and
        # fills one EngineOutcome; the cache wrapper and the process
        # client's own report went.
        import dataclasses

        import repro.cache.base
        import repro.client
        from repro.experiments.engine import EngineOutcome

        assert sorted(
            name for name, value in vars(repro.cache.base).items()
            if isinstance(value, type)
            and value.__module__ == "repro.cache.base"
        ) == ["CacheCounters", "CachePolicy", "PolicyContext"]
        assert repro.client.__all__ == ["Client", "PrefetchEngine", "pt_value"]
        assert [field.name for field in dataclasses.fields(EngineOutcome)] == [
            "response", "counters", "warmup_requests", "final_time",
            "samples", "retunes",
        ]
        assert EngineOutcome().measured_requests == 0

    def test_one_plan_runner(self):
        # 1.10.0: run_plans replaced the executor classes, and sweep
        # and the plan's grid index went.
        import dataclasses

        import repro.exec
        import repro.experiments
        from repro.exec import executor

        assert not hasattr(repro, "sweep")
        assert not hasattr(repro.experiments, "sweep")
        assert not hasattr(executor, "Executor")
        assert repro.exec.__all__ == [
            "BuildCache", "RunPlan", "SweepCheckpoint", "derive_seed",
            "execute_plan", "plan_sweep", "run_plans", "structural_hash",
            "structural_key", "usable_cores",
        ]
        assert [field.name for field in dataclasses.fields(RunPlan)] == [
            "config", "engine", "collect_responses",
        ]


class TestKeywordOnlyContract:
    """Every option (defaulted parameter) on the entry points is keyword-only."""

    ENTRY_POINTS = {
        "run_experiment": run_experiment,
        "sweep_results": sweep_results,
        "run_population": run_population,
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_options_are_keyword_only(self, name):
        signature = inspect.signature(self.ENTRY_POINTS[name])
        for parameter in signature.parameters.values():
            if parameter.default is not inspect.Parameter.empty:
                assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                    f"{name}({parameter.name}=...) must be keyword-only"
                )

    def test_shimmed_functions_accept_varargs(self):
        # No entry point has a VAR_POSITIONAL slot that could catch a
        # positional option (the 1.1 shim's ``*legacy`` went in 1.4).
        for name, function in self.ENTRY_POINTS.items():
            kinds = {
                p.kind for p in inspect.signature(function).parameters.values()
            }
            assert inspect.Parameter.VAR_POSITIONAL not in kinds, name

    def test_run_population_option_names(self):
        signature = inspect.signature(run_population)
        options = [
            p.name for p in signature.parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert options == [
            "jobs", "progress", "checkpoint", "tracer",
            "manifest", "keep_results", "profile",
        ]


class TestDeprecationShim:
    def test_positional_options_raise_type_error(self):
        # Without the 1.1 shim (removed in 1.4) a positional option is
        # Python's own TypeError on every entry point.
        configs = [small_config()]
        with pytest.raises(TypeError):
            run_experiment(small_config(), "fast")
        with pytest.raises(TypeError):
            sweep_results(configs, "fast")

    def test_keyword_calls_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment(small_config(), engine="fast")

    def test_multichannel_internal_path_does_not_warn(self):
        # The channels > 1 pipeline must route through the internal
        # builders, never the deprecated shims.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment(small_config(channels=2), engine="fast")


class TestProgramSpecSurface:
    """The 1.2 consolidation: one declarative builder (shims removed in 1.3)."""

    def test_spec_is_keyword_only(self):
        signature = inspect.signature(repro.ProgramSpec)
        for parameter in signature.parameters.values():
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"ProgramSpec({parameter.name}=...) must be keyword-only"
            )

    def test_spec_builds_single_channel(self):
        layout, schedule = repro.ProgramSpec(
            sizes=(2, 4, 8), delta=3
        ).build()
        assert layout.total_pages == 14
        assert isinstance(schedule, repro.BroadcastSchedule)

    def test_spec_builds_multi_channel(self):
        layout, program = repro.ProgramSpec(
            sizes=(2, 4, 8), delta=3, channels=2
        ).build()
        assert isinstance(program, repro.BroadcastProgram)
        assert program.num_channels == 2
        assert sorted(program.pages) == list(range(layout.total_pages))

    def test_spec_rejects_multi_channel_non_multidisk(self):
        with pytest.raises(ConfigurationError, match="multidisk"):
            repro.ProgramSpec(sizes=(8,), kind="flat", channels=2)

    def test_deprecated_free_functions_removed(self):
        # The 1.2 one-release shims are gone in 1.3: only the
        # underscore internals remain, off the public surface.
        from repro.core import programs

        for shim in ("multidisk_program", "flat_program",
                     "clustered_skewed_program",
                     "random_allocation_program", "schedule_for"):
            assert not hasattr(programs, shim), shim
            assert not hasattr(repro, shim), shim

    def test_internal_builder_matches_spec_output(self):
        from repro.core.programs import _multidisk_program

        layout = repro.DiskLayout.from_delta((2, 4, 8), 3)
        _, modern = repro.ProgramSpec(sizes=(2, 4, 8), delta=3).build()
        assert _multidisk_program(layout).slots == modern.slots


class TestChannelOptionsSurface:
    """channels= / retune_cost= are keyword-only everywhere they appear."""

    def test_config_fields_keyword_only(self):
        signature = inspect.signature(ExperimentConfig)
        for name in ("channels", "retune_cost"):
            assert signature.parameters[name].kind is \
                inspect.Parameter.KEYWORD_ONLY, name

    def test_config_defaults_reproduce_single_channel(self):
        config = small_config()
        assert config.channels == 1
        assert config.retune_cost == 1.0

    def test_config_hash_omits_channel_defaults(self):
        from repro.obs.manifest import _config_dict, config_hash

        implicit = small_config()
        explicit = small_config(channels=1, retune_cost=1.0)
        assert "channels" not in _config_dict(implicit)
        assert "retune_cost" not in _config_dict(implicit)
        assert config_hash(implicit) == config_hash(explicit)
        multi = small_config(channels=2)
        assert _config_dict(multi)["channels"] == 2
        assert config_hash(multi) != config_hash(implicit)


VALID_ENGINES = "valid engines: batch, fast, fast-reference, process"


class TestEngineRegistry:
    """The four plan engines, named once in ``repro.exec.plan.ENGINES``."""

    def test_names_include_builtins(self):
        from repro.experiments.cli import build_parser

        assert ENGINES == ("batch", "fast", "fast-reference", "process")
        parser = build_parser()
        for command in (["run"], ["figures", "fig5"], ["population"]):
            for name in ENGINES:
                args = parser.parse_args([*command, "--engine", name])
                assert args.engine == name
            with pytest.raises(SystemExit):
                parser.parse_args([*command, "--engine", "hybrid"])

    def test_unknown_engine_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            RunPlan(small_config(), engine="quantum")
        assert str(excinfo.value) == f"unknown engine 'quantum'; {VALID_ENGINES}"

    def test_study_engine_rejected_for_plans(self):
        # The studies run through the CLI's ARTIFACTS, not as engines.
        for name in ("hybrid", "query", "multichannel"):
            with pytest.raises(ConfigurationError) as excinfo:
                run_experiment(small_config(), engine=name)
            assert str(excinfo.value).endswith(VALID_ENGINES), name

    def test_run_experiment_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="valid engines"):
            run_experiment(small_config(), engine="quantum")
