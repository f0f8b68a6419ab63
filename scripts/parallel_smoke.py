"""CI smoke run for the plan runner.

Runs a reduced Figure-5 grid (D5, Δ=0..3 at two noise levels) three
times — at ``jobs=1`` (in this process), at ``jobs=2`` (on a process
pool), and with every plan run alone through ``execute_plan(plan)``
with no ``BuildCache`` — and fails unless the runs are byte-identical:

* per-point mean response times and collected samples;
* the aggregated sweep manifests, compared as canonical JSON after
  ``strip_wall_clock`` removes the only fields allowed to differ.

The serial sweep shares one build cache across the grid: one schedule
per Δ, and the last mapping and trace whenever the next point's key
matches (every Δ of one noise level shares a mapping, the whole grid
one trace).  The isolated arm builds everything fresh, so it checks
that the sharing changes nothing; the script prints the reuse counts
and fails if the grid exercised no mapping or trace reuse.

Also replays the serial run from its checkpoint journal and verifies
the resumed sweep reproduces the original exactly without re-executing
anything.  Leaves the manifests in the artifact directory.

Usage::

    PYTHONPATH=src python scripts/parallel_smoke.py --out parallel-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.exec import (
    BuildCache,
    SweepCheckpoint,
    execute_plan,
    plan_sweep,
    run_plans,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import sweep_results
from repro.obs.manifest import (
    build_sweep_manifest,
    strip_wall_clock,
    write_manifest,
)

JOBS = 2


def smoke_grid():
    """A reduced Figure 5 slice: Δ=0..3 at two noise levels."""
    base = dict(
        disk_sizes=(50, 200, 250),
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=600,
        seed=7,
    )
    return [
        ExperimentConfig(
            delta=delta, noise=noise,
            label=f"smoke Δ={delta} noise={noise:.0%}", **base,
        )
        for noise in (0.0, 0.45)
        for delta in range(4)
    ]


def canonical(path: Path) -> str:
    document = json.loads(path.read_text())
    return json.dumps(strip_wall_clock(document), sort_keys=True, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="parallel-artifacts",
        help="artifact directory (default: parallel-artifacts)",
    )
    parser.add_argument(
        "--jobs", type=int, default=JOBS,
        help=f"worker count for the parallel arm (default: {JOBS})",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    configs = smoke_grid()
    serial_manifest = out / "serial-manifest.json"
    parallel_manifest = out / "parallel-manifest.json"
    isolated_manifest = out / "isolated-manifest.json"

    print(f"== serial sweep (jobs=1, {len(configs)} points) ==")
    serial = sweep_results(
        configs,
        jobs=1,
        manifest=str(serial_manifest),
        collect_responses=True,
    )

    print(f"== parallel sweep (jobs={args.jobs}) ==")
    parallel = sweep_results(
        configs,
        jobs=args.jobs,
        manifest=str(parallel_manifest),
        collect_responses=True,
    )

    print("== isolated plans (no build cache) ==")
    isolated = [execute_plan(plan)
                for plan in plan_sweep(configs, collect_responses=True)]
    write_manifest(build_sweep_manifest(isolated), str(isolated_manifest))

    failures = []
    for arm, results, manifest in (
        ("parallel", parallel, parallel_manifest),
        ("isolated", isolated, isolated_manifest),
    ):
        if [r.mean_response_time for r in serial] != [
            r.mean_response_time for r in results
        ]:
            failures.append(f"{arm}: mean response times diverged")
        if [r.samples for r in serial] != [r.samples for r in results]:
            failures.append(f"{arm}: collected samples diverged")
        if canonical(serial_manifest) != canonical(manifest):
            failures.append(
                f"{arm}: sweep manifests diverged (beyond wall-clock fields)"
            )

    # The serial run's cache is private to it, so count the reuse on a
    # replay of the grid through one shared cache.
    builds = BuildCache()
    for plan in plan_sweep(configs, collect_responses=True):
        execute_plan(plan, builds=builds)
    print(
        f"shared build cache over {len(configs)} points: "
        f"{builds.misses} schedules built, "
        f"mapping reused {builds.mapping_hits}x "
        f"({builds.mapping_misses} built), "
        f"trace reused {builds.trace_hits}x ({builds.trace_misses} built)"
    )
    if not builds.mapping_hits or not builds.trace_hits:
        failures.append("the grid exercised no mapping or trace reuse")

    print("== checkpoint replay ==")
    journal = out / "smoke-checkpoint.jsonl"
    plans = plan_sweep(configs, collect_responses=True)
    run_plans(plans, checkpoint=SweepCheckpoint(str(journal)))
    replay = SweepCheckpoint(str(journal))
    replayed = run_plans(plans, checkpoint=replay)
    if replay.resumed != len(configs):
        failures.append(
            f"journal replay resumed {replay.resumed}/{len(configs)} plans"
        )
    if [r.mean_response_time for r in replayed] != [
        r.mean_response_time for r in serial
    ]:
        failures.append("checkpoint replay diverged from the live run")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    print(f"jobs=1 == jobs={args.jobs} == isolated across "
          f"{len(configs)} points: means, samples, manifests")
    print(f"checkpoint replay reproduced the sweep from {journal.name}")
    print("artifacts in", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
