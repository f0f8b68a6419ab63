#!/usr/bin/env python3
"""End-to-end benchmark of record: paper regeneration and client fleets.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed 42] \\
        [--seconds 5] [--trace 0|1]

Every repetition runs in a fresh child process (``child.py``), one at a
time, so process-wide memo caches never warm a later repetition and
only one simulating process runs while anything is timed.  A workload
makes ``round(--seconds / rep_seconds)`` repetitions, at least three
(``workloads.py``).  ``wall_s`` and ``setup_s`` are in normalised
seconds (``speed.py``): wall time corrected for the speed of the shared
host, measured while the repetition ran.  They and ``peak_rss_mb`` are
medians over the repetitions; ``setup_s`` takes extra set-up-only
children until it has ``MIN_SETUPS`` samples.  After the last child
the outputs of every repetition are checked against the references
(``references.py``), computed there if the seed has none committed.

``--trace 1`` makes one untraced repetition and one with per-layer
spans installed (``layers.py``), and prints the per-layer metrics
instead of the end-to-end ones.  The last line of standard output is
one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--workload
all`` each workload prints its own line and a final line merges them,
metric names prefixed by workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from references import expected_outputs
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Scratch space inside the checkout for the repetitions' output files.
WORK_DIR = HERE / ".work"

#: Untraced repetitions per run, at the least: the median of three
#: discards one repetition that the speed probe normalised badly.
MIN_REPETITIONS = 3

#: Set-up samples per run, topped up with set-up-only children.
MIN_SETUPS = 5

#: A repetition that takes longer than this has hung.
CHILD_TIMEOUT_S = 150


def _units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def _spawn(name: str, *, seed: int, toy: bool, run_dir: Path,
           trace: bool = False, setup_only: bool = False) -> Dict:
    """Run one child to completion and return its JSON report."""
    out_dir = tempfile.mkdtemp(dir=run_dir)
    command = [sys.executable, str(CHILD), name, "--seed", str(seed),
               "--out-dir", out_dir]
    if toy:
        command.append("--toy")
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned", repr(time.monotonic())]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise RuntimeError(
            f"{name} repetition exited with code {completed.returncode}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def check_outputs(workload, reports: List[Dict], expected: Dict):
    """``(attempted, failed, checked)`` operations over all repetitions.

    An operation fails when it raised, differs from its reference, or
    differs from the first repetition's output (every repetition, the
    traced one included, must produce identical outputs).
    """
    attempted = failed = checked = 0
    baseline = reports[0]["outputs"]
    for report in reports:
        for name in workload.output_names:
            got = report["outputs"].get(name)
            want = expected.get(name)
            first = baseline.get(name)
            sample = next(
                (value for value in (want, got, first) if value is not None),
                None,
            )
            operations = workload.operations(sample)
            attempted += operations
            if name in report["errors"] or got is None:
                failed += operations
                continue
            bad = 0
            if want is not None:
                bad = workload.mismatches(got, want)
                checked += operations
            if first is not None:
                bad = max(bad, workload.mismatches(got, first))
            failed += bad
    return attempted, failed, checked


def repetitions(workload, seconds: float) -> int:
    """Untraced repetitions per run: a function of the run length only."""
    return max(MIN_REPETITIONS, round(seconds / workload.rep_seconds))


def run_workload(name: str, *, seed: int = 42, seconds: float = 5.0,
                 trace: bool = False, toy: bool = False) -> Dict:
    """Measure and check one workload; the result line plus details."""
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        reports = [
            _spawn(name, seed=seed, toy=toy, run_dir=run_dir)
            for _ in range(1 if trace else repetitions(workload, seconds))
        ]
        setups = [report["setup_s"] for report in reports]
        if trace:
            traced = _spawn(name, seed=seed, toy=toy, run_dir=run_dir,
                            trace=True)
        else:
            traced = None
            while len(setups) < MIN_SETUPS:
                setups.append(_spawn(name, seed=seed, toy=toy,
                                     run_dir=run_dir,
                                     setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    expected = expected_outputs(workload, seed=seed, toy=toy)
    attempted, failed, checked = check_outputs(
        workload, reports + ([traced] if traced else []), expected,
    )

    if traced is not None:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            traced["wall_raw_s"] / reports[0]["wall_raw_s"] - 1.0
        )
    else:
        metrics = {
            "wall_s": statistics.median(
                report["wall_s"] for report in reports
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                report["peak_rss_mb"] for report in reports
            ),
        }
    return {
        "line": {
            # An operation no reference checked is not known correct.
            "correct": failed == 0 and checked == attempted,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "repetitions": reports,
        "setups": setups,
        "traced": traced,
        "checked": checked,
        "errors": sorted({
            f"{artifact}: {message}"
            for report in reports + ([traced] if traced else [])
            for artifact, message in report["errors"].items()
        }),
    }


def _print_details(name: str, seed: int, result: Dict) -> None:
    reports = result["repetitions"]
    line = result["line"]
    print(f"{name}: seed {seed}, {len(reports)} repetition(s), "
          f"{len(result['setups'])} set-up sample(s)"
          + (", traced" if result["traced"] else ""))
    for key in ("wall_s", "wall_raw_s", "setup_raw_s"):
        print(f"  {key} per repetition: "
              + " ".join(f"{report[key]:.3f}" for report in reports
                         if key in report))
    print("  setup_s per sample: "
          + " ".join(f"{value:.3f}" for value in result["setups"]))
    artifacts = reports[0]["artifact_s"]
    for artifact in artifacts:
        seconds = statistics.median(
            report["artifact_s"][artifact] for report in reports
        )
        print(f"  figure.{artifact}.s = {seconds:.3f} s (raw)")
    if result["traced"]:
        inner, outer = result["traced"]["wrapper_cost_s"]
        print(f"  wrapper cost per call: {inner * 1e9:.0f} ns inside the "
              f"span, {outer * 1e9:.0f} ns outside")
    for error in result["errors"]:
        print(f"  raised: {error}")
    print(f"  checked {result['checked']} of {line['attempted']} operations "
          f"against references; {line['failed']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark of record"
    )
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = _units()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        result = run_workload(name, seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace))
        _print_details(name, args.seed, result)
        line = result["line"]
        line["metrics"] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in line["metrics"].items()
        }
        lines[name] = line
        print(json.dumps(line), flush=True)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, line in lines.items()
                for metric, value in line["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
