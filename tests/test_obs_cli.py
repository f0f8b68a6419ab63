"""Tests for ``python -m repro.obs`` (repro.obs.cli): the ``summary``
report over traces and manifests, and the ``regress`` gate."""

from __future__ import annotations

import json

import pytest

from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.experiments.runner import run_experiment
from repro.obs.analyze import analyze
from repro.obs.cli import EXIT_OK, EXIT_USAGE, main
from repro.obs.trace import JsonlSink, MemorySink, Tracer, trace_schedule


@pytest.fixture
def schedule_trace(tmp_path):
    """A JSONL trace of three periods of the tiny multidisk program."""
    layout = DiskLayout((2, 4, 8), (4, 2, 1))
    path = str(tmp_path / "schedule.jsonl")
    with Tracer(JsonlSink(path)) as tracer:
        trace_schedule(multidisk_program(layout), tracer, periods=3)
    return path


@pytest.fixture
def experiment_trace(tmp_path, mini_config):
    """A JSONL trace of a full mini experiment (client + cache records)."""
    path = str(tmp_path / "run.jsonl")
    with Tracer(JsonlSink(path)) as tracer:
        run_experiment(mini_config.with_(num_requests=300), tracer=tracer)
    return path


class TestAnalyses:
    def test_multidisk_interarrival_is_fixed(self, schedule_trace):
        records = [json.loads(line) for line in open(schedule_trace)]
        section = analyze(records)["broadcast"]
        assert section["pages_observed"] == 14
        assert section["max_gap_variance"] == 0.0
        assert section["fixed_interarrival"] is True
        assert section["runs"] == section["runs_checked"] == 1

    def test_perturbed_gap_fails_the_check(self, schedule_trace):
        records = [json.loads(line) for line in open(schedule_trace)]
        delivers = [r for r in records if r["kind"] == "channel.deliver"]
        delivers[-1]["t"] += 0.5  # break one page's final gap
        section = analyze(delivers)["broadcast"]
        assert section["fixed_interarrival"] is False
        assert section["max_gap_variance"] > 0

    def test_demand_driven_trace_is_not_checked(self, mini_config):
        # A process-engine channel delivers only the broadcasts a client
        # waited for, so its gaps are multiples of the program's: no run
        # is checked.  A run that airs every slot beside it still is.
        layout = mini_config.build_layout()
        sink = MemorySink(capacity=None)
        with Tracer(sink) as tracer:
            run_experiment(mini_config.with_(num_requests=300),
                           engine="process", tracer=tracer)
            demand = [record.to_dict() for record in sink.records]
            trace_schedule(mini_config.build_schedule(layout), tracer)
        section = analyze(demand)["broadcast"]
        assert (section["runs"], section["runs_checked"]) == (1, 0)
        assert section["fixed_interarrival"] is None
        assert section["gaps"] == [] and section["pages_with_gaps"] == 0
        both = analyze([record.to_dict() for record in sink.records])
        assert (both["broadcast"]["runs"],
                both["broadcast"]["runs_checked"]) == (2, 1)
        assert both["broadcast"]["fixed_interarrival"] is True

    def test_sections_absent_without_their_records(self, schedule_trace):
        records = [json.loads(line) for line in open(schedule_trace)]
        document = analyze(records)
        assert "broadcast" in document
        assert "responses" not in document and "cache" not in document

    def test_experiment_trace_has_all_sections(self, experiment_trace):
        records = [json.loads(line) for line in open(experiment_trace)]
        document = analyze(records)
        assert document["overview"]["records"] == len(records)
        responses = document["responses"]
        assert responses["hits"] + responses["misses"] == (
            document["overview"]["kinds"]["client.request"]
        )
        assert responses["waits"]["count"] == responses["misses"]
        cache = document["cache"]
        assert cache["admissions"] >= cache["evictions"]
        assert cache["longest_resident"]


class TestCli:
    def test_text_summary_reports_fixed_gaps(self, schedule_trace, capsys):
        assert main(["summary", schedule_trace]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fixed gaps       : yes" in out
        assert "max gap variance : 0" in out

    def test_text_summary_says_demand_driven_runs_are_not_checked(
            self, tmp_path, mini_config, capsys):
        path = str(tmp_path / "process.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            run_experiment(mini_config.with_(num_requests=300),
                           engine="process", tracer=tracer)
        assert main(["summary", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "runs checked     : 0 of 1" in out
        assert "fixed gaps       : not checked" in out
        assert "max gap variance" not in out

    def test_json_summary_is_machine_readable(self, experiment_trace, capsys):
        assert main(["summary", experiment_trace, "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert set(document) >= {"overview", "responses", "cache"}
        assert document["schema"] == "repro.obs.analyze/2"

    def test_top_limits_ranked_tables(self, schedule_trace, capsys):
        assert main(["summary", schedule_trace, "--top", "2",
                     "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert len(document["broadcast"]["gaps"]) == 2
        assert len(document["broadcast"]["top_pages"]) == 2

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        code = main(["summary", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_USAGE
        assert "cannot read trace" in capsys.readouterr().err

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "kind": "x"}\nnot json\n')
        assert main(["summary", str(path)]) == EXIT_USAGE
        assert "malformed trace line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options", [[], ["--disk-sizes", "50,200,250"]],
        ids=["summary", "summary-disk-sizes"],
    )
    def test_torn_trace_exits_2_naming_path_and_line(
            self, experiment_trace, cut_mid_record, options, capsys):
        line = cut_mid_record(experiment_trace)
        assert main(["summary", experiment_trace, *options]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"{experiment_trace}:{line}: malformed trace")

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_analyze_is_an_unknown_command(self, experiment_trace, capsys):
        # ``summary`` prints the one report; no alias keeps the old name.
        assert main(["analyze", experiment_trace]) == EXIT_USAGE
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

    def test_module_entry_point(self, schedule_trace):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summary", schedule_trace],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert completed.returncode == 0
        assert "fixed gaps" in completed.stdout


class TestAnalyzeCommand:
    """The report's attribution through ``summary``: ``--disk-sizes``
    maps the waits onto disks."""

    def test_text_output_attributes_by_disk(self, experiment_trace, capsys):
        assert main(["summary", experiment_trace,
                     "--disk-sizes", "50,200,250"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "response time by disk" in out
        assert "disk1" in out
        assert "cache residency" in out

    def test_json_output_is_schema_tagged(self, experiment_trace, capsys):
        assert main(["summary", experiment_trace, "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.obs.analyze/2"
        assert "cache" in document
        # Without --disk-sizes the waits have no per-disk block.
        assert "by_disk" not in document["responses"]

    def test_space_separated_disk_sizes(self, experiment_trace, capsys):
        assert main(["summary", experiment_trace,
                     "--disk-sizes", "50 200 250", "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert "disk1" in document["responses"]["by_disk"]

    @pytest.mark.parametrize("bad", ["x,y", "50,-3", "0", ""])
    def test_bad_disk_sizes_exit_2(self, experiment_trace, bad, capsys):
        code = main(["summary", experiment_trace, "--disk-sizes", bad])
        assert code == EXIT_USAGE
        assert "--disk-sizes" in capsys.readouterr().err

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        code = main(["summary", str(tmp_path / "absent.jsonl"),
                     "--disk-sizes", "50,200,250"])
        assert code == EXIT_USAGE
        assert "cannot read trace" in capsys.readouterr().err


class TestManifestSummary:
    def test_run_manifest_pretty_printed(self, tmp_path, mini_config,
                                         capsys):
        from repro.obs.monitor import MonitorSuite
        from repro.obs.profile import Profiler
        from repro.obs.trace import Tracer

        path = str(tmp_path / "run-manifest.json")
        run_experiment(
            mini_config.with_(num_requests=300), manifest=path,
            profile=Profiler(), tracer=Tracer(MonitorSuite()),
        )
        assert main(["summary", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "profile" in out
        assert "engine.fast.misses" in out
        assert "monitors" in out
        assert "OK" in out

    @pytest.mark.parametrize("engine", ["fast", "batch"])
    def test_population_manifest_lists_every_segment(
            self, tmp_path, mini_config, engine, capsys):
        # ``fast`` writes the manifest from the per-client plan path,
        # ``batch`` from the fleet path; both share one schema.
        from repro.obs.monitor import MonitorSuite
        from repro.obs.profile import Profiler
        from repro.obs.trace import Tracer
        from repro.population import (
            Choice,
            PopulationSpec,
            SegmentSpec,
            run_population,
        )

        spec = PopulationSpec(
            name="cli-fleet",
            base=mini_config.with_(num_requests=150),
            seed=5,
            engine=engine,
            segments=(
                SegmentSpec("steady", 3),
                SegmentSpec("mixed-policy", 2,
                            policy=Choice(("LRU", "PIX"))),
            ),
        )
        path = str(tmp_path / "population-manifest.json")
        run_population(spec, manifest=path, profile=Profiler(),
                       tracer=Tracer(MonitorSuite()))
        assert main(["summary", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "repro.population/1" in out
        assert f"engine       : {engine}" in out
        for name in ("overall", "steady", "mixed-policy"):
            assert name in out
        assert "profile" in out
        assert "monitors" in out

    def test_json_passthrough_echoes_the_manifest(self, tmp_path,
                                                  mini_config, capsys):
        path = str(tmp_path / "run-manifest.json")
        run_experiment(mini_config.with_(num_requests=300), manifest=path)
        assert main(["summary", path, "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(open(path).read())


    def test_torn_manifest_is_reported_as_a_manifest(
            self, tmp_path, mini_config, cut_mid_record, capsys):
        path = str(tmp_path / "run-manifest.json")
        run_experiment(mini_config.with_(num_requests=300), manifest=path)
        cut_mid_record(path)
        assert main(["summary", path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: torn manifest")
        assert "malformed trace" not in err


class TestRegressCommand:
    def _bench(self, tmp_path, name="BENCH_t.json", wall=10.0):
        path = tmp_path / name
        path.write_text(json.dumps({
            "benchmark": "t", "wall_seconds": wall,
            "parameters": {"seed": 7},
        }))
        return str(path)

    def test_green_gate_exits_0(self, tmp_path, capsys):
        bench = self._bench(tmp_path)
        history = str(tmp_path / "history.jsonl")
        assert main(["regress", bench, "--history", history,
                     "--record"]) == EXIT_OK
        assert main(["regress", bench, "--history", history]) == EXIT_OK
        assert "result: OK" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        baseline = self._bench(tmp_path, wall=10.0)
        history = str(tmp_path / "history.jsonl")
        main(["regress", baseline, "--history", history, "--record"])
        slow = self._bench(tmp_path, name="BENCH_slow.json", wall=30.0)
        assert main(["regress", slow, "--history", history]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_markdown_and_json_formats(self, tmp_path, capsys):
        bench = self._bench(tmp_path)
        history = str(tmp_path / "history.jsonl")
        assert main(["regress", bench, "--history", history,
                     "--format", "md"]) == EXIT_OK
        assert "| benchmark |" in capsys.readouterr().out
        assert main(["regress", bench, "--history", history,
                     "--format", "json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.obs.regress_report/1"

    def test_missing_bench_file_exits_2(self, tmp_path, capsys):
        code = main(["regress", str(tmp_path / "BENCH_absent.json")])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_non_bench_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_odd.json"
        path.write_text(json.dumps({"no_benchmark_field": True}))
        assert main(["regress", str(path)]) == EXIT_USAGE
        assert "benchmark" in capsys.readouterr().err
