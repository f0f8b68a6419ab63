"""CI smoke run for multi-channel broadcast programs.

Five gates, one per contract the channel layer makes
(``src/repro/core/channels.py``):

* **C=1 byte-identity** — a one-channel program must reduce exactly to
  the legacy single-channel pipeline: identical slot lists and
  byte-identical fast-engine measurements, with zero retunes and no
  channel block on the result.
* **Engine agreement** — the fast, process, and reference engines must
  agree sample-for-sample (and retune-for-retune) on multi-channel
  runs.
* **Invariants** — a strict :class:`~repro.obs.monitor.MonitorSuite`
  over C=4 runs (fast *and* process engines) must observe per-channel
  delivery records and finish with zero violations.
* **Bandwidth split pays** — in the Figure-5-style study, the C=2 and
  C=4 curves must sit strictly below C=1 at every Δ.
* **Assignments pinned** — every preset case (D1–D5 × Δ 0–7 × C 2–4 ×
  retune cost 0/1/2.5 × the server's Zipf estimate or the uniform
  default: 720 cases) must get the channels the frozen reference climb
  in ``tests/test_channel_reference.py`` gives it.  Both build times
  are printed, not gated.

The study's deterministic speedups are written to
``BENCH_multichannel.json`` and checked against the committed
``results/bench_history.jsonl`` baseline; ``--record`` appends the
fresh entry (used once, when the baseline is established or
intentionally moved).

Usage::

    PYTHONPATH=src python scripts/multichannel_smoke.py --out mc-artifacts
    PYTHONPATH=src python scripts/multichannel_smoke.py --record
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core.channels import add_in_order, assign_channels, build_program
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program
from repro.experiments.config import DELTA_RANGE, DISK_PRESETS, ExperimentConfig
from repro.experiments.figures import multichannel_study
from repro.experiments.runner import run_experiment
from repro.obs.clock import perf_counter
from repro.obs.monitor import MonitorSuite
from repro.obs.regress import render_text, run_gate
from repro.obs.trace import Tracer
from tests.test_channel_reference import (
    reference_assign_channels,
    server_estimate,
)

#: Bench parameters: fixed, so the document is deterministic and CI
#: reproduces the committed BENCH_multichannel.json byte-for-byte.
BENCH_SEED = 42
BENCH_REQUESTS = 800
BENCH_DELTAS = (3, 5, 7)
BENCH_CHANNELS = (1, 2, 4)
BENCH_PRESET = "D5"


def config(**overrides):
    defaults = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=500,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def check(condition: bool, message: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def gate_identity(failures: list) -> None:
    print("C=1 byte-identity (program vs legacy schedule):")
    for sizes, delta in (((2, 4, 8), 3), ((50, 200, 250), 5)):
        layout = DiskLayout.from_delta(sizes, delta)
        program = build_program(layout, 1)
        legacy = _multidisk_program(layout)
        check(program.channels[0].slots == legacy.slots,
              f"slot lists identical for {sizes} Δ={delta} "
              f"({legacy.period} slots)", failures)
    implicit = run_experiment(config(), engine="fast",
                              collect_responses=True)
    explicit = run_experiment(config(channels=1), engine="fast",
                              collect_responses=True)
    check(implicit.samples == explicit.samples,
          "fast-engine samples identical (channels=1 vs default)",
          failures)
    check(implicit.mean_response_time == explicit.mean_response_time,
          "mean response identical", failures)
    check(explicit.retunes == 0 and explicit.channel_utilisation is None,
          "no tuner state on a single-channel run", failures)


def gate_engine_agreement(failures: list) -> None:
    print("engine agreement on C=2 and C=4 (fast vs process vs "
          "reference):")
    for channels in (2, 4):
        cfg = config(channels=channels)
        results = {
            engine: run_experiment(cfg, engine=engine,
                                   collect_responses=True)
            for engine in ("fast", "process", "fast-reference")
        }
        fast = results["fast"]
        check(fast.retunes > 0,
              f"C={channels}: tuner exercised ({fast.retunes} retunes)",
              failures)
        for engine in ("process", "fast-reference"):
            other = results[engine]
            check(
                other.samples == fast.samples
                and other.retunes == fast.retunes,
                f"C={channels}: {engine} byte-identical to fast",
                failures,
            )


def gate_invariants(failures: list) -> None:
    print("strict monitors over C=4 runs:")
    for engine in ("fast", "process"):
        monitors = MonitorSuite(mode="strict")
        result = run_experiment(
            config(channels=4, num_requests=300), engine=engine,
            tracer=Tracer(monitors),
        )
        check(monitors.ok and monitors.runs == 1,
              f"{engine}: invariants clean over {monitors.observed} "
              f"records ({result.retunes} retunes)", failures)


def gate_reference(failures: list) -> None:
    print("preset assignments vs the frozen reference climb:")
    cases = mismatches = 0
    reference_s = tables_s = 0.0
    for preset in sorted(DISK_PRESETS):
        for delta in DELTA_RANGE:
            layout = DiskLayout.from_delta(DISK_PRESETS[preset], delta)
            for estimate in (server_estimate(layout), None):
                for channels in (2, 3, 4):
                    for retune_cost in (0.0, 1.0, 2.5):
                        start = perf_counter()
                        expected = reference_assign_channels(
                            layout, channels, estimate, retune_cost
                        )
                        middle = perf_counter()
                        assigned = assign_channels(
                            layout, channels, probabilities=estimate,
                            retune_cost=retune_cost,
                        )
                        reference_s += middle - start
                        tables_s += perf_counter() - middle
                        cases += 1
                        if assigned.channels != expected:
                            mismatches += 1
                            print(f"    differs: {preset} Δ={delta} "
                                  f"C={channels} retune={retune_cost} "
                                  f"{'zipf' if estimate else 'uniform'}")
    check(mismatches == 0,
          f"{cases - mismatches} of {cases} preset assignments equal "
          "the reference", failures)
    print(f"    build seconds (not gated): reference {reference_s:.2f}, "
          f"period tables {tables_s:.2f}")


def gate_study(failures: list, out: Path) -> dict:
    print("Figure-5-style study (C=1 vs C=2 vs C=4):")
    data = multichannel_study(
        num_requests=BENCH_REQUESTS,
        seed=BENCH_SEED,
        deltas=BENCH_DELTAS,
        channel_counts=BENCH_CHANNELS,
        preset=BENCH_PRESET,
    )
    baseline = data.series["C=1"]
    points = []
    for position, delta in enumerate(BENCH_DELTAS):
        row = {"delta": delta}
        for channels in BENCH_CHANNELS:
            row[f"c{channels}_mean"] = data.series[f"C={channels}"][position]
            row[f"c{channels}_retunes_per_request"] = \
                data.series[f"C={channels} retunes/req"][position]
        points.append(row)
        for channels in BENCH_CHANNELS[1:]:
            value = data.series[f"C={channels}"][position]
            check(value < baseline[position],
                  f"Δ={delta}: C={channels} beats C=1 "
                  f"({value:.1f} < {baseline[position]:.1f} bu)",
                  failures)
    summary = {
        f"c{channels}": {
            "speedup": (
                add_in_order(baseline)
                / add_in_order(data.series[f"C={channels}"])
            ),
        }
        for channels in BENCH_CHANNELS[1:]
    }
    document = {
        "benchmark": "multichannel",
        "params": {
            "preset": BENCH_PRESET,
            "deltas": list(BENCH_DELTAS),
            "channel_counts": list(BENCH_CHANNELS),
            "num_requests": BENCH_REQUESTS,
            "seed": BENCH_SEED,
            "retune_cost": 1.0,
        },
        "summary": summary,
        "points": points,
    }
    (out / "multichannel_study.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    return document


def gate_bench(document: dict, failures: list, record: bool) -> None:
    print("benchmark regression gate (deterministic speedups):")
    bench_path = _ROOT / "BENCH_multichannel.json"
    bench_path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    report, _fresh = run_gate(
        [str(bench_path)],
        history_path=str(_ROOT / "results" / "bench_history.jsonl"),
        record=record,
    )
    print("    " + render_text(report).replace("\n", "\n    "))
    check(report["status"] == "ok",
          "speedups within the recorded baseline band", failures)
    if record and report.get("recorded"):
        print(f"  recorded {report['recorded']} history entry(ies)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="mc-artifacts",
                        help="artifact directory")
    parser.add_argument("--record", action="store_true",
                        help="append the fresh bench entry to the history")
    arguments = parser.parse_args()
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)

    failures: list = []
    gate_identity(failures)
    gate_engine_agreement(failures)
    gate_invariants(failures)
    gate_reference(failures)
    document = gate_study(failures, out)
    gate_bench(document, failures, arguments.record)

    if failures:
        print(f"multichannel smoke: {len(failures)} gate(s) failed",
              file=sys.stderr)
        return 1
    print("multichannel smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
