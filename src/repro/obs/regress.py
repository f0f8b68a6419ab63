"""Benchmark regression gating over a schema-versioned history.

The bench harnesses (``benchmarks/bench_*.py``) emit ``BENCH_*.json``
documents; this module turns them into a commit-over-commit trajectory:

* :func:`extract_entry` distils one bench document into a history entry
  — benchmark name, a config hash over the *non-volatile* fields (wall
  times, speedups, and host identity stripped, so "same benchmark, same
  parameters" hashes equal across machines and runs), seed provenance,
  host identity, and the wall-clock metrics with their improvement
  direction (``wall_seconds`` lower-is-better, ``speedup``
  higher-is-better);
* ``results/bench_history.jsonl`` accumulates one entry per recorded
  run (append-only JSONL, schema-tagged);
* :func:`compare` checks fresh bench documents against the recorded
  baseline *noise-aware*: a metric regresses only when it lands beyond
  ``sigma`` standard deviations of the recorded samples **and** beyond a
  relative floor (single-sample baselines have zero variance; the floor
  keeps ordinary machine jitter from tripping the gate);
* ``python -m repro.obs regress`` renders the comparison as text,
  markdown, or JSON and exits non-zero on regression — the CI gate.

Nothing here reads a clock or calendar: entries are identified by
content, not timestamps, so recording is deterministic and the history
diff in a commit shows exactly the measured numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Schema tag of each history entry (one JSONL line).
HISTORY_SCHEMA = "repro.obs.bench_history/1"

#: Schema tag of the comparison report document.
REPORT_SCHEMA = "repro.obs.regress_report/1"

#: Default location of the committed history, relative to the repo root.
DEFAULT_HISTORY = os.path.join("results", "bench_history.jsonl")

#: A fresh value regresses when it is beyond ``mean ± max(sigma·std,
#: rel_floor·|mean|)`` in the bad direction.  The floor dominates for
#: single-sample baselines (std == 0) and absorbs machine jitter.
DEFAULT_SIGMA = 3.0
DEFAULT_REL_FLOOR = 0.25

#: Leaf keys extracted as metrics, with their improvement direction.
_METRIC_DIRECTIONS = {
    "wall_seconds": "lower",
    "total_wall_seconds": "lower",
    "serial_wall_seconds": "lower",
    "parallel_wall_seconds": "lower",
    "speedup": "higher",
}

#: List-valued fields whose elements are per-grid-point records; the
#: gate compares headline totals, not every point, so these are not
#: walked for metrics.
_PER_POINT_LISTS = frozenset({"trajectory", "points", "runs"})

#: Document fields that vary run-to-run without the benchmark changing;
#: stripped before hashing so the config hash is a parameter identity.
_VOLATILE_FIELDS = frozenset({
    "wall_seconds", "total_wall_seconds", "speedup", "host",
    "shared_build_seconds", "effective_jobs", "trajectory", "scaling",
})


def _strip_volatile(document):
    """Deep copy with wall-clock / host / derived-timing fields removed."""
    if isinstance(document, dict):
        return {
            key: _strip_volatile(value)
            for key, value in document.items()
            if key not in _VOLATILE_FIELDS
        }
    if isinstance(document, list):
        return [_strip_volatile(item) for item in document]
    return document


def _walk_metrics(document, prefix: str, out: Dict[str, Dict]) -> None:
    if isinstance(document, dict):
        for key in sorted(document):
            value = document[key]
            if key in _PER_POINT_LISTS and isinstance(value, list):
                continue
            path = f"{prefix}.{key}" if prefix else key
            direction = _METRIC_DIRECTIONS.get(key)
            if direction is not None and isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                out[path] = {"value": float(value), "direction": direction}
            else:
                _walk_metrics(value, path, out)
    elif isinstance(document, list):
        for index, item in enumerate(document):
            _walk_metrics(item, f"{prefix}[{index}]", out)


def _collect_seeds(document, out: List[int]) -> None:
    if isinstance(document, dict):
        for key in sorted(document):
            value = document[key]
            if key == "seed" and isinstance(value, int):
                out.append(value)
            else:
                _collect_seeds(value, out)
    elif isinstance(document, list):
        for item in document:
            _collect_seeds(item, out)


def extract_entry(document: Dict, *, source: str = "") -> Dict:
    """One history entry for a ``BENCH_*.json`` document."""
    bench = document.get("benchmark")
    if not bench:
        raise ConfigurationError(
            f"bench document {source or '<inline>'!r} has no 'benchmark' "
            "field; is it a BENCH_*.json emitted by benchmarks/?"
        )
    stable = _strip_volatile(document)
    payload = json.dumps(stable, sort_keys=True, default=str)
    metrics: Dict[str, Dict] = {}
    _walk_metrics(document, "", metrics)
    seeds: List[int] = []
    _collect_seeds(document, seeds)
    return {
        "schema": HISTORY_SCHEMA,
        "bench": bench,
        "config_hash": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "host": document.get("host"),
        "seeds": sorted(set(seeds)),
        "source": source,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# history file I/O
# ---------------------------------------------------------------------------

def read_history(path: str) -> List[Dict]:
    """The recorded entries, oldest first; a missing file is empty."""
    if not os.path.exists(path):
        return []
    entries: List[Dict] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{number}: torn history entry ({error.msg})"
                ) from None
            if entry.get("schema") != HISTORY_SCHEMA:
                raise ConfigurationError(
                    f"{path}:{number}: unknown history schema "
                    f"{entry.get('schema')!r} (expected {HISTORY_SCHEMA})"
                )
            entries.append(entry)
    return entries


def append_history(path: str, entries: Iterable[Dict]) -> int:
    """Append entries to the history file; returns the count written."""
    entries = list(entries)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")
    return len(entries)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _baseline_stats(values: List[float]) -> Tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance)


def compare(
    history: List[Dict],
    fresh: List[Dict],
    *,
    sigma: float = DEFAULT_SIGMA,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> Dict:
    """Noise-aware comparison of fresh entries against the history.

    The baseline for a fresh entry is every recorded entry sharing its
    benchmark name and config hash (same parameters — wall clock and
    host excluded by construction).  Per metric, the verdict is

    * ``no-baseline`` — nothing recorded to compare against (passes);
    * ``ok`` — within ``mean ± max(sigma·std, rel_floor·|mean|)``;
    * ``improved`` / ``regression`` — beyond the band, in the good or
      bad direction for the metric.

    The report's top-level ``status`` is ``regression`` iff any metric
    regressed; the CLI turns that into a non-zero exit.
    """
    benches: List[Dict] = []
    totals = {"ok": 0, "regression": 0, "improved": 0, "no-baseline": 0}
    for entry in fresh:
        baseline = [
            recorded for recorded in history
            if recorded["bench"] == entry["bench"]
            and recorded["config_hash"] == entry["config_hash"]
        ]
        rows: List[Dict] = []
        for name in sorted(entry["metrics"]):
            metric = entry["metrics"][name]
            value = metric["value"]
            direction = metric["direction"]
            samples = [
                recorded["metrics"][name]["value"]
                for recorded in baseline
                if name in recorded["metrics"]
            ]
            row: Dict = {
                "metric": name,
                "value": value,
                "direction": direction,
                "samples": len(samples),
            }
            if not samples:
                row["status"] = "no-baseline"
            else:
                mean, std = _baseline_stats(samples)
                threshold = max(sigma * std, rel_floor * abs(mean))
                row.update(baseline_mean=mean, baseline_std=std,
                           threshold=threshold)
                delta = value - mean
                bad = delta if direction == "lower" else -delta
                if bad > threshold:
                    row["status"] = "regression"
                elif bad < -threshold:
                    row["status"] = "improved"
                else:
                    row["status"] = "ok"
            totals[row["status"]] += 1
            rows.append(row)
        benches.append({
            "bench": entry["bench"],
            "source": entry.get("source", ""),
            "config_hash": entry["config_hash"],
            "baseline_entries": len(baseline),
            "metrics": rows,
        })
    return {
        "schema": REPORT_SCHEMA,
        "sigma": sigma,
        "rel_floor": rel_floor,
        "totals": totals,
        "status": "regression" if totals["regression"] else "ok",
        "benches": benches,
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_STATUS_MARKS = {
    "ok": "ok", "improved": "improved (+)",
    "regression": "REGRESSION", "no-baseline": "no baseline",
}


def render_text(report: Dict) -> str:
    """Human-readable comparison report."""
    lines = [
        f"benchmark regression gate "
        f"(sigma={report['sigma']}, rel_floor={report['rel_floor']:.0%})"
    ]
    for bench in report["benches"]:
        lines.append(
            f"  {bench['bench']} "
            f"[{bench['baseline_entries']} baseline entries]"
        )
        for row in bench["metrics"]:
            detail = ""
            if "baseline_mean" in row:
                detail = (
                    f"  baseline {row['baseline_mean']:.4g} "
                    f"± {row['threshold']:.4g}"
                )
            lines.append(
                f"    {row['metric']:<36} {row['value']:>10.4g}  "
                f"{_STATUS_MARKS[row['status']]}{detail}"
            )
    totals = report["totals"]
    lines.append(
        f"result: {report['status'].upper()} "
        f"({totals['ok']} ok, {totals['improved']} improved, "
        f"{totals['no-baseline']} without baseline, "
        f"{totals['regression']} regressed)"
    )
    return "\n".join(lines)


def render_markdown(report: Dict) -> str:
    """The comparison as a markdown table (for PR comments / job pages)."""
    lines = [
        "# Benchmark regression gate",
        "",
        f"Verdict: **{report['status'].upper()}** "
        f"(sigma={report['sigma']}, relative floor "
        f"{report['rel_floor']:.0%})",
        "",
        "| benchmark | metric | value | baseline | status |",
        "|---|---|---:|---:|---|",
    ]
    for bench in report["benches"]:
        for row in bench["metrics"]:
            baseline = (
                f"{row['baseline_mean']:.4g} ± {row['threshold']:.4g}"
                if "baseline_mean" in row else "—"
            )
            lines.append(
                f"| {bench['bench']} | `{row['metric']}` "
                f"| {row['value']:.4g} | {baseline} "
                f"| {_STATUS_MARKS[row['status']]} |"
            )
    return "\n".join(lines)


def run_gate(
    bench_paths: List[str],
    *,
    history_path: str = DEFAULT_HISTORY,
    record: bool = False,
    sigma: float = DEFAULT_SIGMA,
    rel_floor: float = DEFAULT_REL_FLOOR,
) -> Tuple[Dict, List[Dict]]:
    """Load, compare, and optionally record; the CLI's work function.

    Returns ``(report, fresh_entries)``.  With ``record=True`` the fresh
    entries are appended to the history *only when the gate passes*, so
    a regressed run never pollutes its own baseline.
    """
    fresh = []
    for path in bench_paths:
        with open(path) as handle:
            document = json.load(handle)
        fresh.append(extract_entry(document, source=os.path.basename(path)))
    history = read_history(history_path)
    report = compare(history, fresh, sigma=sigma, rel_floor=rel_floor)
    if record and report["status"] == "ok":
        appended = append_history(history_path, fresh)
        report["recorded"] = appended
    return report, fresh
