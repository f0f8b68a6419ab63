"""Run-manifest tests (repro.obs.manifest): hashing, schema, sweep."""

from __future__ import annotations

import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiment, sweep_results
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    SWEEP_SCHEMA,
    build_manifest,
    build_sweep_manifest,
    config_hash,
    read_manifest,
)
from repro.obs.trace import MemorySink, Tracer
from repro.population import PopulationSpec, SegmentSpec, run_population
from repro.population.run import build_population_manifest


class TestConfigHash:
    def test_stable_across_equal_configs(self, mini_config):
        assert config_hash(mini_config) == config_hash(
            mini_config.with_()
        )

    def test_sensitive_to_any_field(self, mini_config):
        base = config_hash(mini_config)
        assert config_hash(mini_config.with_(delta=4)) != base
        assert config_hash(mini_config.with_(seed=8)) != base
        assert config_hash(mini_config.with_(policy="LRU")) != base

    def test_accepts_plain_mappings(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestRunManifest:
    def test_fields_pin_down_the_run(self, mini_config, tmp_path):
        path = str(tmp_path / "run.json")
        result = run_experiment(mini_config, manifest=path)
        manifest = read_manifest(path)
        # The on-disk form equals the attached dict modulo JSON's
        # tuple->list coercion.
        assert manifest == json.loads(json.dumps(result.manifest))
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["config_hash"] == config_hash(mini_config)
        assert manifest["seed"] == mini_config.seed
        assert manifest["config"]["policy"] == "LIX"
        assert manifest["mean_response_time"] == result.mean_response_time
        assert manifest["measured_requests"] == result.measured_requests
        assert manifest["schedule_period"] == result.schedule_period
        assert manifest["response"]["count"] == result.measured_requests
        assert manifest["wall_seconds"] >= 0.0
        assert sum(manifest["access_locations"].values()) > 0.99

    def test_manifest_json_is_round_trippable(self, mini_config, tmp_path):
        path = tmp_path / "run.json"
        run_experiment(mini_config, manifest=str(path))
        # The file is valid, indented, sorted JSON ending in a newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == MANIFEST_SCHEMA

    def test_torn_manifest_names_the_file(self, mini_config, tmp_path,
                                          cut_mid_record):
        path = str(tmp_path / "run.json")
        run_experiment(mini_config, manifest=path)
        cut_mid_record(path)
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(path)}: torn manifest"):
            read_manifest(path)

    def test_metrics_and_trace_sections_are_optional(self, mini_config):
        tracer = Tracer(MemorySink())
        result = run_experiment(mini_config, tracer=tracer)
        manifest = build_manifest(result, tracer=tracer)
        assert manifest["trace"] == {
            "enabled": True,
            "records_emitted": tracer.emitted,
        }
        bare = build_manifest(result)
        assert "trace" not in bare
        # No run, sweep or population manifest has a metrics block.
        fleet = run_population(PopulationSpec(
            name="pair", base=mini_config, seed=3,
            segments=(SegmentSpec("all", 2),),
        ))
        for document in (
            manifest,
            bare,
            build_sweep_manifest([result], tracer=tracer),
            build_population_manifest(fleet, tracer=tracer),
        ):
            assert "metrics" not in document

    def test_no_manifest_requested_leaves_result_bare(self, mini_config):
        assert run_experiment(mini_config).manifest is None


class TestSweepManifest:
    def _configs(self, mini_config):
        return [mini_config.with_(delta=d) for d in (0, 2)]

    def test_aggregates_per_run_manifests(self, mini_config, tmp_path):
        path = str(tmp_path / "sweep.json")
        results = sweep_results(self._configs(mini_config), manifest=path)
        sweep_doc = read_manifest(path)
        assert sweep_doc["schema"] == SWEEP_SCHEMA
        assert sweep_doc["summary"]["runs"] == 2
        assert sweep_doc["summary"]["total_measured_requests"] == sum(
            r.measured_requests for r in results
        )
        means = [run["mean_response_time"] for run in sweep_doc["runs"]]
        assert means == [r.mean_response_time for r in results]
        assert sweep_doc["summary"]["mean_response_time_min"] == min(means)
        assert sweep_doc["summary"]["mean_response_time_max"] == max(means)

    def test_empty_sweep_summary_is_well_formed(self):
        sweep_doc = build_sweep_manifest([])
        assert sweep_doc["summary"]["runs"] == 0
        assert sweep_doc["summary"]["mean_response_time_min"] == 0.0

    def test_progress_callback_fires_in_order(self, mini_config):
        seen = []
        sweep_results(
            self._configs(mini_config),
            progress=lambda done, total, result: seen.append(
                (done, total, result.config.delta)
            ),
        )
        assert seen == [(1, 2, 0), (2, 2, 2)]
