"""Serial-vs-parallel wall-clock benchmark for the plan runner.

Times the full Figure-5 grid (five disk presets x Δ=0..7, 40 sweep
points) two ways — ``run_plans(plans)`` and ``run_plans(plans,
jobs=N)`` — verifies the two runs are identical minus wall-clock
fields, and records the trajectory to ``BENCH_sweep.json``:

* per-point records from the sweep-manifest machinery
  (``build_sweep_manifest`` with ``strip_wall_clock`` applied);
* both arms' wall times and the observed speedup;
* the host's usable core count, because the speedup is meaningless
  without it — ``ProcessPoolExecutor`` cannot beat serial on a
  single-core container, and CI containers are routinely single-core.

The speedup gate (>= ``MIN_SPEEDUP`` with 4 workers) is enforced only
when the host actually has >= 4 usable cores; on smaller hosts the
benchmark still runs, still checks determinism, and records the
observed numbers for the artifact.

Runs standalone (writes ``BENCH_sweep.json``) or under pytest (tiny
scale, no file output)::

    PYTHONPATH=src python benchmarks/bench_sweep.py
    pytest benchmarks/bench_sweep.py
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.exec import plan_sweep, run_plans, usable_cores
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    ExperimentConfig,
)
from repro.obs.clock import perf_counter
from repro.obs.manifest import build_sweep_manifest, strip_wall_clock

#: Acceptance target for the 4-worker fig5 sweep on a >= 4-core host.
MIN_SPEEDUP = 3.0

#: Worker count for the parallel arm.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", 4))

#: Measured requests per sweep point (reduced from the paper's 15_000
#: so the 40-point grid finishes in seconds while leaving each point
#: heavy enough to dominate process-pool dispatch overhead).
REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", 2000))


def fig5_grid(num_requests: int = REQUESTS):
    """The Figure 5 grid: every preset x every Δ, uncached clients."""
    return [
        ExperimentConfig(
            disk_sizes=DISK_PRESETS[preset],
            delta=delta,
            cache_size=1,
            noise=0.0,
            offset=0,
            access_range=100,
            region_size=10,
            num_requests=num_requests,
            seed=42,
            label=f"{preset} Δ={delta}",
        )
        for preset in ("D1", "D2", "D3", "D4", "D5")
        for delta in DELTA_RANGE
    ]


def run_arms(configs, jobs: int):
    """Time the serial and parallel arms over the same plans."""
    plans = plan_sweep(configs)

    started = perf_counter()
    serial = run_plans(plans)
    serial_seconds = perf_counter() - started

    started = perf_counter()
    parallel = run_plans(plans, jobs=jobs)
    parallel_seconds = perf_counter() - started

    return serial, serial_seconds, parallel, parallel_seconds


def check_identical(serial, parallel):
    """Raise AssertionError unless the arms agree minus wall clock."""
    assert [r.mean_response_time for r in serial] == [
        r.mean_response_time for r in parallel
    ], "parallel execution changed the measured response times"
    serial_doc = json.dumps(
        strip_wall_clock(build_sweep_manifest(serial)), sort_keys=True
    )
    parallel_doc = json.dumps(
        strip_wall_clock(build_sweep_manifest(parallel)), sort_keys=True
    )
    assert serial_doc == parallel_doc, (
        "sweep manifests diverged beyond wall-clock fields"
    )


def build_report(serial, serial_seconds, parallel, parallel_seconds, jobs):
    trajectory = strip_wall_clock(build_sweep_manifest(serial))
    return {
        "schema": "repro.bench.sweep/1",
        "benchmark": "fig5 grid, SerialExecutor vs ParallelExecutor",
        "grid_points": len(serial),
        "num_requests": REQUESTS,
        "host": {
            "usable_cores": usable_cores(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "arms": {
            "serial": {"jobs": 1, "wall_seconds": serial_seconds},
            "parallel": {
                "jobs": jobs,
                "effective_jobs": min(jobs, usable_cores()),
                "wall_seconds": parallel_seconds,
            },
        },
        "speedup": serial_seconds / parallel_seconds,
        "min_speedup_target": MIN_SPEEDUP,
        "target_applies": usable_cores() >= jobs,
        "identical_minus_wall_clock": True,
        "trajectory": trajectory,
    }


def test_parallel_sweep_identical_and_timed():
    """Pytest entry: tiny scale, no file output."""
    configs = fig5_grid(num_requests=150)[:8]
    serial, serial_seconds, parallel, parallel_seconds = run_arms(
        configs, jobs=2
    )
    check_identical(serial, parallel)
    assert serial_seconds > 0 and parallel_seconds > 0


def main() -> int:
    configs = fig5_grid()
    cores = usable_cores()
    print(f"fig5 grid: {len(configs)} points x {REQUESTS} requests, "
          f"jobs={JOBS}, usable cores={cores}")

    serial, serial_seconds, parallel, parallel_seconds = run_arms(
        configs, jobs=JOBS
    )
    try:
        check_identical(serial, parallel)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    speedup = serial_seconds / parallel_seconds
    print(f"  serial   : {serial_seconds:.3f}s")
    print(f"  parallel : {parallel_seconds:.3f}s (jobs={JOBS})")
    print(f"  speedup  : {speedup:.2f}x")
    print("  results identical minus wall-clock fields -- OK")

    report = build_report(
        serial, serial_seconds, parallel, parallel_seconds, JOBS
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}")

    if cores >= JOBS and speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below the {MIN_SPEEDUP:.0f}x "
              f"target on a {cores}-core host", file=sys.stderr)
        return 1
    if cores < JOBS:
        print(f"  note: host exposes {cores} usable core(s); the "
              f"{MIN_SPEEDUP:.0f}x target needs >= {JOBS} — recorded "
              "numbers are for the determinism artifact, not the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
