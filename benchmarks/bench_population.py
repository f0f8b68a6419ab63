"""Fleet-size scaling and statistical validation for repro.population.

Four studies, recorded to ``BENCH_population.json``:

* **Scaling** — a heterogeneous fleet at increasing sizes, each run
  serially and with ``jobs=N``: wall times, clients/second throughput,
  speedup, and a byte-identity check between the arms at every size.
  The speedup gate (>= ``MIN_SPEEDUP`` at the largest size) applies
  only on hosts with >= ``JOBS`` usable cores, as in ``bench_sweep``.

* **Figure-5 validation** — the population layer must agree with the
  single-client harness it wraps: a 1000-client *homogeneous* fleet
  (same config per client, per-client seeds only) is an i.i.d. sample
  of the single-client estimator, so its mean response time must match
  a reference sample of independent ``run_experiment`` calls within
  sampling error.  Checked at two Δ points of the scaled Figure-5
  setup; the gate is ``|fleet - reference| <= 4·s·sqrt(1/n_ref +
  1/n_fleet)`` with ``s`` the pooled per-client standard deviation.

* **Batch engine** — the exact columnar fleet engine against the
  per-client path on the 1000-client homogeneous cache-less fleet:
  wall time (best of ``BATCH_REPEATS``), clients/second, and a >=
  ``MIN_BATCH_SPEEDUP`` gate.  Both arms draw every client from its own
  ``derive_seed`` streams, so their rollups must be *equal* (snapshots
  with wall-clock fields stripped, overall and per segment), not merely
  close.  A second study runs the same fleet on a ``CHANNELS``-channel
  broadcast program — the single-frequency tuner — under the same gate.

* **Cached batch engine** — the same comparison for the cost-based
  policies the batch engine exists for: a homogeneous LIX fleet and a
  homogeneous PIX fleet of ``CACHED_CLIENTS`` Figure 13/14 clients (D5,
  Δ=3, CacheSize = Offset = 500, Noise 30%), rollups equal and a >=
  ``MIN_CACHED_SPEEDUP`` gate.

Runs standalone (writes ``BENCH_population.json``) or under pytest
(tiny scale, no file output)::

    PYTHONPATH=src python benchmarks/bench_population.py
    pytest benchmarks/bench_population.py
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.exec.plan import derive_seed
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs.clock import perf_counter
from repro.obs.manifest import strip_wall_clock
from repro.population import (
    Choice,
    PopulationSpec,
    SegmentSpec,
    Uniform,
    UniformInt,
    run_population,
    scale_spec,
)

#: Acceptance target for the parallel arm at the largest fleet size.
MIN_SPEEDUP = 2.5

#: Worker count for the parallel arm.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", 4))

#: Measured requests per client (reduced from the paper's 15_000 so a
#: thousand-client fleet finishes in tens of seconds; the validation
#: gate scales its tolerance with the observed spread, so the reduced
#: count costs accuracy, not correctness).
REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", 600))

#: Fleet sizes for the scaling study.
FLEET_SIZES = (50, 200, 800)

#: Clients in the homogeneous validation fleet.
VALIDATION_CLIENTS = 1000

#: Independent single-client reference runs per validation point.
REFERENCE_RUNS = 16

#: Seed the reference runs derive theirs from (disjoint from the
#: fleet's ``derive_seed(seed=21, ...)`` stream).
REFERENCE_SEED = 977

#: Acceptance target for the exact batch engine against the per-client
#: path on the 1000-client homogeneous fleets, C=1 and C=``CHANNELS``
#: (single-threaded both sides).  The engine measured 6.3x (C=1) and
#: 5.2x (C=4) on a 2-vCPU host; the floor leaves room for slower hosts.
MIN_BATCH_SPEEDUP = 3.0

#: Batch-arm repetitions (one exact fleet runs in about a tenth of a
#: second; the best-of filters scheduler noise out of the speedup ratio).
BATCH_REPEATS = 5

#: Channel count for the multi-channel batch study.
CHANNELS = 4

#: Acceptance target for the cached batch arms (LIX and PIX fleets at
#: Figure 13/14 parameters) against the per-client path, single-threaded
#: both sides.  The page→slot index, linked LIX chains and incremental
#: P/PIX minimum of ``cache/batched.py`` took the end-to-end benchmark's
#: mixed 250-client LIX/PIX ``fleet`` from 0.86x to 2.0x of per-client
#: speed (2-vCPU host); these homogeneous arms measured 3.6x (LIX) and
#: 3.4x (PIX).
MIN_CACHED_SPEEDUP = 1.5

#: Clients per cached arm (a quarter of the north star's 1000, as in
#: the end-to-end benchmark's ``fleet`` workload) and its repetitions.
CACHED_CLIENTS = 250
CACHED_REPEATS = 3

#: The Figure 13/14 CacheSize (= Offset).
CACHED_SIZE = 500


def hetero_spec(clients: int, num_requests: int = REQUESTS) -> PopulationSpec:
    """The scaling fleet: three segments over the reduced database."""
    base = ExperimentConfig(
        disk_sizes=(50, 200, 250),
        delta=3,
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=num_requests,
        seed=7,
    )
    spec = PopulationSpec(
        name="bench-hetero",
        base=base,
        seed=17,
        segments=(
            SegmentSpec(
                "mixed-caches", 5,
                cache_size=UniformInt(10, 80),
                policy=Choice(("LRU", "LIX")),
            ),
            SegmentSpec("noisy", 3, noise=Uniform(0.0, 0.45)),
            SegmentSpec("drifting", 2, drift_rotations=Uniform(0.0, 2.0)),
        ),
    )
    return scale_spec(spec, clients)


def homogeneous_config(delta: int, *, num_requests: int = REQUESTS,
                       channels: int = 1):
    """One scaled Figure-5 point: D5-shaped disks, uncached client."""
    return ExperimentConfig(
        disk_sizes=(50, 200, 250),
        delta=delta,
        cache_size=1,
        access_range=100,
        region_size=10,
        num_requests=num_requests,
        channels=channels,
        label=f"fig5 Δ={delta}" + (f" C={channels}" if channels > 1 else ""),
    )


def homogeneous_spec(delta: int, clients: int, *,
                     num_requests: int = REQUESTS,
                     engine: str = "fast",
                     channels: int = 1) -> PopulationSpec:
    """A homogeneous fleet of ``clients`` i.i.d. Figure-5 clients."""
    return PopulationSpec(
        name=f"bench-fig5-delta{delta}"
             + (f"-c{channels}" if channels > 1 else ""),
        base=homogeneous_config(delta, num_requests=num_requests,
                                channels=channels),
        seed=21,
        engine=engine,
        segments=(SegmentSpec("uniform", clients),),
    )


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def snapshots(result) -> str:
    blocks = {"overall": result.overall.snapshot()}
    for name, aggregate in result.segments.items():
        blocks[name] = aggregate.snapshot()
    return json.dumps(strip_wall_clock(blocks), sort_keys=True)


def run_scaling(sizes, jobs: int, num_requests: int = REQUESTS):
    """Serial and parallel arms at each fleet size, identity-checked."""
    rows = []
    for clients in sizes:
        spec = hetero_spec(clients, num_requests)

        started = perf_counter()
        serial = run_population(spec, jobs=1)
        serial_seconds = perf_counter() - started

        started = perf_counter()
        parallel = run_population(spec, jobs=jobs)
        parallel_seconds = perf_counter() - started

        assert snapshots(serial) == snapshots(parallel), (
            f"fleet of {clients}: parallel aggregates diverged"
        )
        rows.append({
            "clients": clients,
            "serial_wall_seconds": serial_seconds,
            "parallel_wall_seconds": parallel_seconds,
            "speedup": serial_seconds / parallel_seconds,
            "serial_clients_per_second": clients / serial_seconds,
            "parallel_clients_per_second": clients / parallel_seconds,
            "response_mean": serial.overall.response_means.mean,
            "fairness": serial.overall.fairness.jain,
        })
    return rows


def run_validation(delta: int, clients: int, reference_runs: int,
                   jobs: int, num_requests: int = REQUESTS):
    """One Δ point: homogeneous fleet vs independent single-client runs."""
    spec = homogeneous_spec(delta, clients, num_requests=num_requests)
    fleet = run_population(spec, jobs=jobs)
    stats = fleet.overall.response_means

    config = homogeneous_config(delta, num_requests=num_requests)
    references = [
        run_experiment(
            config.with_(seed=derive_seed(REFERENCE_SEED, index))
        ).mean_response_time
        for index in range(reference_runs)
    ]
    reference_mean = sum(references) / len(references)

    # Pooled per-client spread; both samples draw the same estimator.
    spread = stats.stddev
    tolerance = 4.0 * spread * math.sqrt(
        1.0 / reference_runs + 1.0 / clients
    )
    difference = abs(stats.mean - reference_mean)
    return {
        "delta": delta,
        "clients": clients,
        "reference_runs": reference_runs,
        "fleet_mean": stats.mean,
        "fleet_stddev": spread,
        "fleet_stderr": stats.stderr,
        "reference_mean": reference_mean,
        "difference": difference,
        "tolerance": tolerance,
        "within_sampling_error": difference <= tolerance,
    }


def compare_engines(spec: PopulationSpec, repeats: int):
    """Per-client and exact columnar runs of ``spec``, timed and compared.

    Both arms run single-threaded; the batch arm's wall time is the
    best of ``repeats``.  ``identical`` records whether the two arms'
    rollups are equal, wall-clock fields stripped.
    """
    started = perf_counter()
    per_client = run_population(replace(spec, engine="fast"), jobs=1)
    per_client_seconds = perf_counter() - started

    batch_spec = replace(spec, engine="batch")
    batch_seconds = math.inf
    batch = None
    for _ in range(repeats):
        started = perf_counter()
        batch = run_population(batch_spec)
        batch_seconds = min(batch_seconds, perf_counter() - started)

    clients = spec.num_clients
    return {
        "clients": clients,
        "best_of": repeats,
        "per_client": {
            "wall_seconds": per_client_seconds,
            "clients_per_second": clients / per_client_seconds,
            "fleet_mean": per_client.overall.response_means.mean,
        },
        "columnar": {
            "wall_seconds": batch_seconds,
            "clients_per_second": clients / batch_seconds,
            "fleet_mean": batch.overall.response_means.mean,
        },
        "speedup": per_client_seconds / batch_seconds,
        "identical": snapshots(batch) == snapshots(per_client),
    }


def run_batch_study(delta: int, clients: int, *,
                    num_requests: int = REQUESTS,
                    repeats: int = BATCH_REPEATS,
                    channels: int = 1):
    """The exact columnar batch engine vs the per-client path, one
    cache-less fleet.

    With ``channels > 1`` both arms simulate the C-row
    :class:`~repro.core.schedule.BroadcastProgram` — the scalar arm
    through ``FastEngine.run_trace``'s tuner, the batch arm through the
    vectorized tuner.
    """
    spec = homogeneous_spec(delta, clients, num_requests=num_requests,
                            channels=channels)
    return {
        "delta": delta,
        "channels": channels,
        **compare_engines(spec, repeats),
        "min_speedup_target": MIN_BATCH_SPEEDUP,
    }


def cached_spec(policy: str, clients: int, *,
                num_requests: int = REQUESTS,
                cache_size: int = CACHED_SIZE) -> PopulationSpec:
    """A homogeneous fleet of Figure 13/14 clients running ``policy``:
    D5, Δ=3, CacheSize = Offset, Noise 30%."""
    base = ExperimentConfig(
        disk_sizes=DISK_PRESETS["D5"],
        delta=3,
        cache_size=cache_size,
        offset=cache_size,
        noise=0.30,
        policy=policy,
        num_requests=num_requests,
        label=f"fig13 {policy} cache={cache_size}",
    )
    return PopulationSpec(
        name=f"bench-fig13-{policy.lower()}",
        base=base,
        seed=21,
        segments=(SegmentSpec("uniform", clients),),
    )


def run_cached_study(policy: str, clients: int, *,
                     num_requests: int = REQUESTS,
                     cache_size: int = CACHED_SIZE,
                     repeats: int = CACHED_REPEATS):
    """The columnar engine vs the per-client path on a cached fleet."""
    spec = cached_spec(policy, clients, num_requests=num_requests,
                       cache_size=cache_size)
    return {
        "policy": policy,
        "cache_size": cache_size,
        **compare_engines(spec, repeats),
        "min_speedup_target": MIN_CACHED_SPEEDUP,
    }


def build_report(scaling, validation, jobs, *, batch=None,
                 batch_multichannel=None, batch_cached=None):
    return {
        "schema": "repro.bench.population/1",
        "benchmark": "population fleet scaling + Figure-5 validation",
        "num_requests": REQUESTS,
        "host": {
            "usable_cores": usable_cores(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "jobs": jobs,
        "scaling": scaling,
        "validation": validation,
        "batch": batch,
        "batch_multichannel": batch_multichannel,
        "batch_cached": batch_cached,
        "min_speedup_target": MIN_SPEEDUP,
        "target_applies": usable_cores() >= jobs,
        "identical_minus_wall_clock": True,
    }


def test_population_scaling_identical():
    """Pytest entry: tiny fleet, serial == parallel aggregates."""
    rows = run_scaling((20,), jobs=2, num_requests=150)
    assert rows[0]["clients"] == 20
    assert rows[0]["serial_wall_seconds"] > 0


def test_population_matches_single_client():
    """Pytest entry: a small homogeneous fleet sits near the reference."""
    row = run_validation(
        delta=1, clients=60, reference_runs=8, jobs=2, num_requests=150
    )
    assert row["within_sampling_error"], (
        f"fleet mean {row['fleet_mean']:.2f} vs reference "
        f"{row['reference_mean']:.2f} exceeds tolerance "
        f"{row['tolerance']:.2f}"
    )


def test_batch_engine_matches_per_client():
    """Pytest entry: a tiny batch fleet folds exactly as per-client.

    The speedup gate belongs to the full-scale ``main()`` run; at
    pytest scale only the equality contract is asserted.
    """
    row = run_batch_study(delta=1, clients=80, num_requests=150, repeats=2)
    assert row["identical"], (
        f"batch mean {row['columnar']['fleet_mean']!r} vs per-client "
        f"{row['per_client']['fleet_mean']!r}: rollups differ"
    )
    assert row["speedup"] > 1.0


def test_multichannel_batch_engine_matches_per_client():
    """Pytest entry: a tiny C=4 batch fleet folds exactly as per-client."""
    row = run_batch_study(delta=1, clients=80, num_requests=150,
                          repeats=2, channels=CHANNELS)
    assert row["identical"], (
        f"C={CHANNELS} batch mean {row['columnar']['fleet_mean']!r} vs "
        f"per-client {row['per_client']['fleet_mean']!r}: rollups differ"
    )
    assert row["speedup"] > 1.0


def test_cached_batch_engine_matches_per_client():
    """Pytest entry: tiny LIX and PIX fleets fold exactly as per-client.

    Equality only: the speedup gate belongs to the full-scale
    ``main()`` run.
    """
    for policy in ("LIX", "PIX"):
        row = run_cached_study(policy, clients=20, num_requests=150,
                               cache_size=100, repeats=1)
        assert row["identical"], (
            f"{policy} batch mean {row['columnar']['fleet_mean']!r} vs "
            f"per-client {row['per_client']['fleet_mean']!r}: rollups "
            "differ"
        )


def main() -> int:
    cores = usable_cores()
    print(f"population bench: fleets {FLEET_SIZES} x {REQUESTS} requests, "
          f"jobs={JOBS}, usable cores={cores}")

    scaling = run_scaling(FLEET_SIZES, jobs=JOBS)
    for row in scaling:
        print(f"  {row['clients']:>5} clients: "
              f"serial {row['serial_wall_seconds']:.2f}s, "
              f"parallel {row['parallel_wall_seconds']:.2f}s "
              f"({row['speedup']:.2f}x, "
              f"{row['parallel_clients_per_second']:.0f} clients/s)")

    print(f"validation: {VALIDATION_CLIENTS}-client homogeneous fleets "
          f"vs {REFERENCE_RUNS} reference runs")
    validation = []
    for delta in (1, 3):
        row = run_validation(
            delta, VALIDATION_CLIENTS, REFERENCE_RUNS, jobs=JOBS
        )
        validation.append(row)
        print(f"  Δ={delta}: fleet {row['fleet_mean']:.2f} bu vs "
              f"reference {row['reference_mean']:.2f} bu "
              f"(|Δ|={row['difference']:.2f}, "
              f"tolerance {row['tolerance']:.2f}) -> "
              f"{'OK' if row['within_sampling_error'] else 'FAIL'}")

    batch_rows = []
    for channels in (1, CHANNELS):
        print(f"batch engine, C={channels}: {VALIDATION_CLIENTS}-client "
              f"homogeneous fleet, columnar vs per-client "
              f"(best of {BATCH_REPEATS})")
        row = run_batch_study(delta=3, clients=VALIDATION_CLIENTS,
                              channels=channels)
        batch_rows.append(row)
        print(f"  Δ=3: per-client {row['per_client']['wall_seconds']:.2f}s "
              f"({row['per_client']['clients_per_second']:.0f} clients/s), "
              f"batch {row['columnar']['wall_seconds'] * 1000:.1f}ms "
              f"({row['columnar']['clients_per_second']:.0f} clients/s) "
              f"-> {row['speedup']:.1f}x, rollups "
              f"{'identical' if row['identical'] else 'DIFFER'}")
    batch, multichannel = batch_rows

    cached_rows = []
    for policy in ("LIX", "PIX"):
        print(f"cached batch engine, {policy}: {CACHED_CLIENTS}-client "
              f"Figure 13/14 fleet (CacheSize = Offset = {CACHED_SIZE}, "
              f"Noise 30%), columnar vs per-client "
              f"(best of {CACHED_REPEATS})")
        row = run_cached_study(policy, CACHED_CLIENTS)
        cached_rows.append(row)
        print(f"  per-client {row['per_client']['wall_seconds']:.2f}s, "
              f"batch {row['columnar']['wall_seconds']:.2f}s "
              f"-> {row['speedup']:.2f}x, rollups "
              f"{'identical' if row['identical'] else 'DIFFER'}")

    report = build_report(scaling, validation, JOBS, batch=batch,
                          batch_multichannel=multichannel,
                          batch_cached=cached_rows)
    out = Path(__file__).resolve().parent.parent / "BENCH_population.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}")

    failures = []
    labelled = [(f"C={row['channels']}", row) for row in batch_rows] + [
        (f"{row['policy']} cached", row) for row in cached_rows
    ]
    for label, row in labelled:
        if not row["identical"]:
            failures.append(
                f"{label} batch fleet rollup differs from the per-client "
                "fold"
            )
        if row["speedup"] < row["min_speedup_target"]:
            failures.append(
                f"{label} batch speedup {row['speedup']:.2f}x below the "
                f"{row['min_speedup_target']:.1f}x target"
            )
    for row in validation:
        if not row["within_sampling_error"]:
            failures.append(
                f"Δ={row['delta']}: fleet mean off by "
                f"{row['difference']:.2f} (> {row['tolerance']:.2f})"
            )
    largest = scaling[-1]
    if cores >= JOBS and largest["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"speedup {largest['speedup']:.2f}x at "
            f"{largest['clients']} clients below the "
            f"{MIN_SPEEDUP:.1f}x target on a {cores}-core host"
        )
    if cores < JOBS:
        print(f"  note: host exposes {cores} usable core(s); the "
              f"{MIN_SPEEDUP:.1f}x target needs >= {JOBS} — recorded "
              "numbers are for the artifact, not the gate")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
