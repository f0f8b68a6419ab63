"""CI smoke run for the columnar batch engine.

Four gates, one per contract the engine makes
(``src/repro/batch/fleet.py``):

* **Exactness** — a single-client ``--engine batch`` plan must be
  byte-identical to ``fast`` across channel counts C ∈ {1, 2, 4}:
  result stats, collected samples, retune counters, and the full
  traced record stream (including ``client.retune`` instants).
* **Fleet exactness** — a 1000-client homogeneous cache-less batch
  fleet must fold to the same rollup as the per-client path: equal
  snapshots, wall-clock fields stripped, overall and per segment.
* **Invariants** — a strict :class:`~repro.obs.monitor.MonitorSuite`
  over a multi-client columnar run must observe interleaved per-client
  records and finish with zero violations, and profiled tier counts
  must reconcile with the engine's miss counters.
* **Sub-segmentation** — a heterogeneous multi-channel fleet whose
  segments draw from finite-support distributions (Choice/UniformInt)
  must bucket into homogeneous columnar sub-segments and fold
  byte-identically to the per-client plan path.

Leaves the batch fleet manifest in the artifact directory.

Usage::

    PYTHONPATH=src python scripts/batch_smoke.py --out batch-artifacts
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.batch.fleet import run_fleet
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.manifest import strip_wall_clock
from repro.obs.monitor import MonitorSuite
from repro.obs.profile import Profiler
from repro.obs.trace import MemorySink, Tracer
from repro.population import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    UniformInt,
    run_population,
)

FLEET_CLIENTS = 1000


def single_config(**overrides):
    defaults = dict(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=20,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=400,
        seed=13,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def cacheless_spec(clients: int, engine: str) -> PopulationSpec:
    return PopulationSpec(
        name="batch-smoke",
        base=single_config(cache_size=1, policy="LRU", num_requests=600),
        seed=21,
        engine=engine,
        segments=(SegmentSpec("uniform", clients),),
    )


def check(condition: bool, message: str, failures: list) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def gate_exactness(failures: list) -> None:
    for channels in (1, 2, 4):
        print(f"single-client exactness, C={channels} (batch vs fast):")
        overrides = {} if channels == 1 else {"channels": channels}
        traces = {}
        results = {}
        for engine in ("fast", "batch"):
            sink = MemorySink(capacity=200_000)
            results[engine] = run_experiment(
                single_config(**overrides), engine=engine,
                collect_responses=True, tracer=Tracer(sink),
            )
            traces[engine] = [
                (record.time, record.kind, record.fields)
                for record in sink.records
            ]
        fast, batch = results["fast"], results["batch"]
        check(batch.mean_response_time == fast.mean_response_time,
              "mean response time identical", failures)
        check(batch.hit_rate == fast.hit_rate, "hit rate identical",
              failures)
        check(batch.samples == fast.samples,
              "per-request samples identical", failures)
        check(batch.retunes == fast.retunes,
              f"retune counters identical ({fast.retunes})", failures)
        check(
            (batch.measured_requests, batch.warmup_requests)
            == (fast.measured_requests, fast.warmup_requests),
            "request accounting identical", failures,
        )
        check(traces["batch"] == traces["fast"]
              and len(traces["batch"]) > 0,
              f"traced record streams identical "
              f"({len(traces['fast'])} records)", failures)
        if channels > 1:
            retunes = sum(
                1 for r in traces["batch"] if r[1] == "client.retune"
            )
            check(retunes > 0,
                  f"retune records present ({retunes})", failures)


def rollups(result) -> dict:
    """Overall and per-segment snapshots, wall-clock fields stripped."""
    return strip_wall_clock({
        "overall": result.overall.snapshot(),
        **{name: block.snapshot() for name, block in result.segments.items()},
    })


def gate_fleet_exactness(failures: list, out: Path) -> None:
    print(f"{FLEET_CLIENTS}-client cache-less fleet exactness (batch vs "
          "per-client):")
    per_client = run_population(cacheless_spec(FLEET_CLIENTS, "fast"))
    batch = run_population(
        cacheless_spec(FLEET_CLIENTS, "batch"),
        manifest=str(out / "batch_fleet_manifest.json"),
    )
    expected = rollups(per_client)
    got = rollups(batch)
    for name in expected:
        check(got.get(name) == expected[name],
              f"{name} rollup identical (mean "
              f"{expected[name]['response_mean']['mean']:.3f} bu over "
              f"{expected[name]['clients']} clients)", failures)


def gate_invariants(failures: list) -> None:
    print("strict monitors + profiler reconciliation on a columnar run:")
    monitors = MonitorSuite(mode="strict")
    profile = Profiler(enabled=True)
    spec = PopulationSpec(
        name="batch-smoke-monitored",
        base=single_config(num_requests=300),
        seed=29,
        engine="batch",
        segments=(SegmentSpec("uniform", 8),),
    )
    result = run_fleet(spec, monitors=monitors, profile=profile)
    check(monitors.ok and monitors.runs == 1,
          f"strict invariants clean over {monitors.observed} records",
          failures)
    document = profile.snapshot()
    tier_total = sum(document["tiers"].values())
    misses = document["counters"]["engine.batch.misses"]
    check(tier_total == misses,
          f"tier attribution reconciles ({tier_total} queries == "
          f"{misses} misses)", failures)
    check(
        document["counters"]["requests.measured"]
        == result.overall.measured_requests,
        "profiled request counts match the rollup", failures,
    )


def gate_subsegmentation(failures: list) -> None:
    print("sub-segmented heterogeneous fleet (C=2, finite support):")
    monitors = MonitorSuite(mode="strict")
    spec = PopulationSpec(
        name="batch-smoke-subseg",
        base=single_config(num_requests=300, channels=2),
        seed=41,
        segments=(
            SegmentSpec("varied", 6,
                        cache_size=UniformInt(5, 30),
                        policy=Choice(("LRU", "LIX", "P"))),
            SegmentSpec("uniform", 4),
        ),
    )
    fleet = run_fleet(spec, monitors=monitors)
    scalar = run_population(spec)
    fleet_doc = fleet.overall.snapshot()
    scalar_doc = scalar.overall.snapshot()
    fleet_doc.pop("total_wall_seconds")
    scalar_doc.pop("total_wall_seconds")
    check(fleet_doc == scalar_doc,
          "fleet fold byte-identical to per-client plans", failures)
    check(monitors.ok,
          f"strict invariants clean over {monitors.observed} records",
          failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="batch-artifacts",
                        help="artifact directory")
    arguments = parser.parse_args()
    out = Path(arguments.out)
    out.mkdir(parents=True, exist_ok=True)

    failures: list = []
    gate_exactness(failures)
    gate_fleet_exactness(failures, out)
    gate_invariants(failures)
    gate_subsegmentation(failures)

    if failures:
        print(f"batch smoke: {len(failures)} gate(s) failed",
              file=sys.stderr)
        return 1
    print("batch smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
