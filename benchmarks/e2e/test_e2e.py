"""Self-test of the end-to-end benchmark, every workload at toy size.

    pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time

import pytest

import layers
import references
import run
import workloads
from child import run_repetition
from speed import NOMINAL_PROBE_S, SpeedProbe
from workloads import ROOT, WORKLOADS

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs."""
    with pytest.MonkeyPatch.context() as patch:
        # References computed now, not left over from an earlier version.
        patch.setattr(references, "COMPUTED_DIR",
                      tmp_path_factory.mktemp("reference"))
        return {
            name: [
                run.run_workload(name, seed=SEED, seconds=0, toy=True,
                                 trace=trace)
                for trace in (False, True, True)
            ]
            for name in WORKLOADS
        }


def _names(section):
    return {metric["name"] for metric in DECLARED[section]}


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_printed_metrics_are_exactly_the_declared_ones(toy_runs, name):
    untraced, traced, _again = toy_runs[name]
    assert set(untraced["line"]["metrics"]) == _names("end_to_end")
    assert set(traced["line"]["metrics"]) == _names("per_layer")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_output_matches_its_reference(toy_runs, name):
    for result in toy_runs[name]:
        line = result["line"]
        assert line["correct"] and line["failed"] == 0, result["errors"]
        assert result["checked"] == line["attempted"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(toy_runs, name):
    untraced, traced, _again = toy_runs[name]
    assert traced["traced"]["outputs"] == untraced["repetitions"][0]["outputs"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_counts_repeat_exactly(toy_runs, name):
    _untraced, first, second = toy_runs[name]
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    counts = [metric for metric, unit in units.items() if unit == "count"]
    counts.append("cache.hit_ratio")
    assert {m: first["line"]["metrics"][m] for m in counts} == {
        m: second["line"]["metrics"][m] for m in counts
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_times_sum_to_the_traced_wall_time(toy_runs, name):
    metrics = toy_runs[name][1]["line"]["metrics"]
    parts = [*layers.SPAN_METRICS, "trace.wrapper.s", "unattributed.s"]
    assert math.isclose(sum(metrics[part] for part in parts),
                        metrics["trace.wall.s"], rel_tol=1e-9)


def test_traced_run_restores_every_entry_point(tmp_path):
    before = [entry[2] for entry in layers.resolve_entry_points()]
    report = run_repetition("fleet", seed=SEED, toy=True,
                            out_dir=str(tmp_path), spawned=time.monotonic(),
                            probe=SpeedProbe(), trace=True)
    assert report["layers"]["fleet.columnar_groups"] == 2
    after = [entry[2] for entry in layers.resolve_entry_points()]
    assert all(a is b for a, b in zip(before, after))
    leftovers = [
        f"{module.__name__}.{alias}"
        for module in layers._repro_modules()
        for alias, value in vars(module).items()
        if getattr(value, "__qualname__", "").startswith("LayerTimer._wrap")
    ]
    assert leftovers == []


def test_a_wrong_cell_or_segment_fails_its_operations(toy_runs):
    paper = WORKLOADS["paper"]
    report = toy_runs["paper"][0]["repetitions"][0]
    expected = dict(report["outputs"])
    rows = expected["fig5"].split("\r\n")
    cells = rows[1].split(",")
    cells[1] = "0.0"
    rows[1] = ",".join(cells)
    expected["fig5"] = "\r\n".join(rows)
    assert run.check_outputs(paper, [report], expected)[1] == 1

    fleet = WORKLOADS["fleet"]
    report = toy_runs["fleet"][0]["repetitions"][0]
    wrong = json.loads(json.dumps(report["outputs"]["fleet"]))
    wrong["segments"]["clients"]["hit_rate"] = 0.0
    attempted, failed, _checked = run.check_outputs(
        fleet, [report], {"fleet": wrong})
    assert failed == attempted == wrong["num_clients"]

    attempted, failed, checked = run.check_outputs(
        fleet, [report], {"fleet": None})
    assert failed == checked == 0 < attempted


def test_a_crashing_artifact_fails_its_operations(toy_runs, tmp_path,
                                                  monkeypatch):
    def crash(**kwargs):
        raise ValueError("injected")

    builder = workloads.ARTIFACTS["fig9"]
    monkeypatch.setitem(workloads.ARTIFACTS, "fig9", (crash, *builder[1:]))
    report = run_repetition("paper_profiled", seed=SEED, toy=True,
                            out_dir=str(tmp_path), spawned=time.monotonic(),
                            probe=SpeedProbe())
    assert "ValueError: injected" in report["errors"]["fig9"]
    assert set(report["outputs"]) == {"fig5", "fig13"}
    expected = toy_runs["paper_profiled"][0]["repetitions"][0]["outputs"]
    workload = WORKLOADS["paper_profiled"]
    attempted, failed, _checked = run.check_outputs(
        workload, [report], expected)
    assert failed == workload.operations(expected["fig9"])
    assert attempted == sum(map(workload.operations, expected.values()))


def test_reference_path_reproduces_the_published_tables():
    assert references.published_mismatches(("table1", "fig5")) == []


def test_speed_probe_samples_a_span_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    try:
        started = time.monotonic()
        while time.monotonic() - started < 0.3:
            pass
        span = probe.span(since=started)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert span.probes >= 3
    assert 0.25 < span.raw_s < 0.35
    assert span.normalised_s == pytest.approx(
        span.raw_s * NOMINAL_PROBE_S / span.mean_probe_s)
    assert probe.span().probes == 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper",
         "--seed", "42", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
