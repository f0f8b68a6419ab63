"""Benchmark regression gating (repro.obs.regress).

Synthetic bench documents drive the whole pipeline: entry extraction
(config hashing over non-volatile fields), history round-trips, the
noise-aware comparison bands, the record-only-when-green rule, and both
renderers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.regress import (
    HISTORY_SCHEMA,
    REPORT_SCHEMA,
    append_history,
    compare,
    extract_entry,
    read_history,
    render_markdown,
    render_text,
    run_gate,
)


def bench_document(wall=10.0, speedup=4.0, requests=600, host="ci"):
    return {
        "benchmark": "engine",
        "schema": "repro.bench/1",
        "host": host,
        "parameters": {"num_requests": requests, "seed": 7},
        "wall_seconds": wall,
        "speedup": speedup,
        "trajectory": [
            {"delta": 0, "wall_seconds": wall / 2, "seed": 7},
        ],
    }


class TestExtractEntry:
    def test_entry_shape(self):
        entry = extract_entry(bench_document(), source="BENCH_engine.json")
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["bench"] == "engine"
        assert entry["source"] == "BENCH_engine.json"
        assert entry["seeds"] == [7]
        assert entry["metrics"]["wall_seconds"] == {
            "value": 10.0, "direction": "lower",
        }
        assert entry["metrics"]["speedup"] == {
            "value": 4.0, "direction": "higher",
        }
        # Per-point lists are headline-excluded: no trajectory metrics.
        assert not any("trajectory" in name for name in entry["metrics"])

    def test_config_hash_ignores_volatile_fields(self):
        slow = extract_entry(bench_document(wall=10.0, host="laptop"))
        fast = extract_entry(bench_document(wall=2.0, host="ci"))
        assert slow["config_hash"] == fast["config_hash"]

    def test_config_hash_tracks_parameters(self):
        small = extract_entry(bench_document(requests=600))
        large = extract_entry(bench_document(requests=6000))
        assert small["config_hash"] != large["config_hash"]

    def test_missing_benchmark_field_rejected(self):
        with pytest.raises(ConfigurationError, match="no 'benchmark'"):
            extract_entry({"wall_seconds": 1.0}, source="BENCH_bad.json")


class TestHistoryIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        entries = [extract_entry(bench_document(wall=w)) for w in (9.0, 11.0)]
        assert read_history(path) == []  # missing file is empty
        assert append_history(path, entries) == 2
        assert read_history(path) == entries

    def test_torn_history_line_names_path_and_line(self, tmp_path):
        committed = (
            Path(__file__).resolve().parent.parent
            / "results" / "bench_history.jsonl"
        ).read_text()
        lines = committed.splitlines(keepends=True)
        assert len(lines) >= 2
        path = tmp_path / "bench_history.jsonl"
        # Keep the first entry whole and cut the second mid-line.
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        with pytest.raises(
            ConfigurationError, match=r"bench_history\.jsonl:2: torn"
        ):
            read_history(str(path))

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": "bogus/9"}) + "\n")
        with pytest.raises(ConfigurationError, match="unknown history"):
            read_history(str(path))


class TestCompare:
    def baseline(self, walls):
        return [extract_entry(bench_document(wall=w)) for w in walls]

    def metric_row(self, report, name="wall_seconds"):
        (bench,) = report["benches"]
        return next(r for r in bench["metrics"] if r["metric"] == name)

    def test_no_baseline_passes(self):
        report = compare([], self.baseline([10.0]))
        assert report["schema"] == REPORT_SCHEMA
        assert report["status"] == "ok"
        assert self.metric_row(report)["status"] == "no-baseline"

    def test_within_band_is_ok(self):
        history = self.baseline([10.0, 10.5, 9.5])
        report = compare(history, self.baseline([11.0]))
        assert report["status"] == "ok"
        assert self.metric_row(report)["status"] == "ok"

    def test_injected_regression_fails(self):
        history = self.baseline([10.0, 10.5, 9.5])
        report = compare(history, self.baseline([20.0]))
        assert report["status"] == "regression"
        assert self.metric_row(report)["status"] == "regression"
        assert report["totals"]["regression"] >= 1

    def test_improvement_in_the_good_direction(self):
        history = self.baseline([10.0, 10.5, 9.5])
        report = compare(history, self.baseline([2.0]))
        assert report["status"] == "ok"  # improvements never fail the gate
        assert self.metric_row(report)["status"] == "improved"

    def test_higher_is_better_for_speedup(self):
        history = [extract_entry(bench_document(speedup=4.0))]
        collapsed = [extract_entry(bench_document(speedup=1.0))]
        report = compare(history, collapsed)
        assert self.metric_row(report, "speedup")["status"] == "regression"

    def test_single_sample_baseline_uses_relative_floor(self):
        history = self.baseline([10.0])  # std == 0
        within = compare(history, self.baseline([12.0]))
        assert within["status"] == "ok"  # 20% < 25% floor
        beyond = compare(history, self.baseline([13.0]))
        assert beyond["status"] == "regression"  # 30% > 25% floor

    def test_sigma_widens_the_band(self):
        history = self.baseline([9.0, 10.0, 11.0])
        fresh = self.baseline([14.0])
        assert compare(history, fresh, sigma=3.0)["status"] == "regression"
        assert compare(history, fresh, sigma=10.0)["status"] == "ok"

    def test_different_parameters_have_no_baseline(self):
        history = [extract_entry(bench_document(requests=600))]
        report = compare(history, [extract_entry(
            bench_document(requests=6000)
        )])
        assert self.metric_row(report)["status"] == "no-baseline"


class TestRunGate:
    def write_bench(self, tmp_path, name="BENCH_engine.json", **kwargs):
        path = tmp_path / name
        path.write_text(json.dumps(bench_document(**kwargs)))
        return str(path)

    def test_record_then_compare(self, tmp_path):
        bench = self.write_bench(tmp_path)
        history = str(tmp_path / "history.jsonl")
        report, fresh = run_gate([bench], history_path=history, record=True)
        assert report["status"] == "ok"
        assert report["recorded"] == 1
        assert read_history(history) == fresh
        # The same numbers re-checked against their own record pass.
        report, _ = run_gate([bench], history_path=history)
        assert report["status"] == "ok"
        assert report["totals"]["ok"] >= 1

    def test_regressed_run_is_never_recorded(self, tmp_path):
        history = str(tmp_path / "history.jsonl")
        baseline = self.write_bench(tmp_path, wall=10.0)
        run_gate([baseline], history_path=history, record=True)
        regressed = self.write_bench(
            tmp_path, name="BENCH_engine2.json", wall=30.0
        )
        report, _ = run_gate([regressed], history_path=history, record=True)
        assert report["status"] == "regression"
        assert "recorded" not in report
        assert len(read_history(history)) == 1  # baseline only

    def test_renderers_cover_the_verdict(self, tmp_path):
        history = str(tmp_path / "history.jsonl")
        baseline = self.write_bench(tmp_path, wall=10.0)
        run_gate([baseline], history_path=history, record=True)
        regressed = self.write_bench(
            tmp_path, name="BENCH_engine2.json", wall=30.0
        )
        report, _ = run_gate([regressed], history_path=history)
        text = render_text(report)
        assert "REGRESSION" in text
        assert "baseline entries" in text
        markdown = render_markdown(report)
        assert "**REGRESSION**" in markdown
        assert "| engine |" in markdown
