"""CI smoke run for the population layer.

Simulates a 200-client heterogeneous fleet twice — serially and with
``jobs=4`` — and fails unless the two runs are byte-identical:

* the overall and per-segment aggregate snapshots;
* the population manifests, compared as canonical JSON after
  ``strip_wall_clock`` removes the only fields allowed to differ.

Also interrupts the fleet (journals the first half of the clients),
then resumes from the checkpoint under ``jobs=4`` and verifies the
resumed rollup matches the uninterrupted one exactly.  Leaves both
manifests in the artifact directory.

Then runs the fleet on the batch engine, which buckets clients with
equal draws into columnar runs: the rollup must equal the per-client
fold, and a run whose ``progress`` callback raises after client 100
must resume from its journal to the same rollup, simulating only the
clients the journal lacks.

Usage::

    PYTHONPATH=src python scripts/population_smoke.py --out population-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.exec import SweepCheckpoint, run_plans
from repro.experiments.config import ExperimentConfig
from repro.obs.manifest import strip_wall_clock
from repro.population import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    Uniform,
    UniformInt,
    expand,
    run_population,
)

JOBS = 4
CLIENTS = 200
#: Clients the batch arm's interrupted run reports before it raises.
INTERRUPT_AFTER = 100


class Interrupted(Exception):
    """Raised by the batch arm's progress callback."""


def smoke_spec() -> PopulationSpec:
    """A 200-client heterogeneous fleet over the reduced smoke database."""
    base = ExperimentConfig(
        disk_sizes=(50, 200, 250),
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=400,
        seed=7,
    )
    return PopulationSpec(
        name="population-smoke",
        base=base,
        seed=13,
        segments=(
            SegmentSpec(
                "mixed-caches", 100,
                cache_size=UniformInt(10, 80),
                policy=Choice(("LRU", "LIX")),
            ),
            SegmentSpec(
                "noisy", 60,
                noise=Uniform(0.0, 0.45),
                offset=UniformInt(0, 50),
            ),
            SegmentSpec(
                "drifting", 40,
                drift_rotations=Uniform(0.0, 2.0),
                think_time=Uniform(0.5, 4.0),
            ),
        ),
    )


def batch_spec() -> PopulationSpec:
    """The smoke fleet on the batch engine.

    ``mixed-caches`` keeps the base cache size and draws only the
    policy, so its clients fill 3 columnar buckets; its ``UniformInt``
    cache sizes would make nearly every client a bucket of its own.
    The two ``Uniform`` segments run per client.
    """
    spec = smoke_spec()
    mixed = SegmentSpec("mixed-caches", 100,
                        policy=Choice(("LRU", "LIX", "PIX")))
    return replace(spec, engine="batch",
                   segments=(mixed,) + spec.segments[1:])


def batch_failures(out: Path) -> list:
    """The batch arm: fold equality and resume from an interrupted run."""
    failures = []
    spec = batch_spec()
    print(f"== batch fleet ({spec.num_clients} clients) ==")
    fold = snapshots(run_population(replace(spec, engine="fast")))
    if snapshots(run_population(spec)) != fold:
        failures.append("batch fleet diverged from the per-client fold")

    journal = out / "population-batch-checkpoint.jsonl"
    journal.unlink(missing_ok=True)

    def interrupt(completed, _total, _result):
        if completed == INTERRUPT_AFTER:
            raise Interrupted(completed)

    try:
        run_population(spec, progress=interrupt,
                       checkpoint=SweepCheckpoint(str(journal)))
        failures.append("the batch run's progress never reached "
                        f"client {INTERRUPT_AFTER}")
    except Interrupted:
        pass
    resume = SweepCheckpoint(str(journal))
    resumed = run_population(spec, checkpoint=resume)
    if snapshots(resumed) != fold:
        failures.append("batch checkpoint resume diverged from the fold")
    # The fleet journals every client it simulates, so one line per
    # client means no journalled client ran again.
    lines = len(journal.read_text().splitlines())
    if lines != spec.num_clients:
        failures.append(f"batch journal holds {lines} entries for "
                        f"{spec.num_clients} clients")
    print(f"batch fleet: resumed past {resume.resumed} journalled "
          f"clients; journal now holds {lines} entries")
    return failures


def canonical(path: Path) -> str:
    document = json.loads(path.read_text())
    return json.dumps(strip_wall_clock(document), sort_keys=True, indent=2)


def snapshots(result) -> str:
    blocks = {"overall": result.overall.snapshot()}
    for name, aggregate in result.segments.items():
        blocks[name] = aggregate.snapshot()
    return json.dumps(strip_wall_clock(blocks), sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="population-artifacts",
        help="artifact directory (default: population-artifacts)",
    )
    parser.add_argument(
        "--jobs", type=int, default=JOBS,
        help=f"worker count for the parallel arm (default: {JOBS})",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = smoke_spec()
    assert spec.num_clients == CLIENTS
    serial_manifest = out / "population-serial.json"
    parallel_manifest = out / "population-parallel.json"

    print(f"== serial fleet ({spec.num_clients} clients) ==")
    serial = run_population(spec, jobs=1, manifest=str(serial_manifest))
    print(serial.summary())

    print(f"== parallel fleet (jobs={args.jobs}) ==")
    parallel = run_population(
        spec, jobs=args.jobs, manifest=str(parallel_manifest),
    )

    failures = []
    if snapshots(serial) != snapshots(parallel):
        failures.append("aggregate snapshots diverged")
    if canonical(serial_manifest) != canonical(parallel_manifest):
        failures.append(
            "population manifests diverged (beyond wall-clock fields)"
        )

    print("== checkpoint resume ==")
    journal = out / "population-checkpoint.jsonl"
    # A fresh journal: a previous run's would already hold every client.
    journal.unlink(missing_ok=True)
    half = expand(spec)[: spec.num_clients // 2]
    run_plans(half, checkpoint=SweepCheckpoint(str(journal)))
    resume = SweepCheckpoint(str(journal))
    if resume.resumed != len(half):
        failures.append(
            f"journal replay resumed {resume.resumed}/{len(half)} clients"
        )
    resumed = run_population(spec, jobs=args.jobs, checkpoint=resume)
    if snapshots(resumed) != snapshots(serial):
        failures.append("checkpoint resume diverged from the live fleet")

    failures += batch_failures(out)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    print(f"serial == parallel (jobs={args.jobs}) across "
          f"{spec.num_clients} clients: aggregates, manifests")
    print(f"checkpoint resume reproduced the fleet from {journal.name} "
          f"({resume.resumed} clients journalled)")
    print("artifacts in", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
