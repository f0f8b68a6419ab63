"""CI smoke run for the observability stack.

Exercises the whole repro.obs surface end to end and leaves the
artifacts CI uploads:

* a reduced Figure-5 sweep (D5, Δ=0..3) with tracing, profiling, and
  strict invariant monitors **on**, writing a JSONL trace
  (``fig5-smoke.jsonl``), an aggregated sweep manifest
  (``fig5-smoke-manifest.json``), and the profile snapshot
  (``fig5-smoke-profile.json``) — and asserting that the profiler's
  timing-tier counts reconcile exactly with the build cache's
  :meth:`~repro.core.schedule.BroadcastSchedule.timing_stats` totals
  and with the engine's own miss count;
* the same grid re-run under the ``fast-reference`` engine with strict
  monitors and a profiler, so both arithmetics of the engine's one loop
  are checked against the paper's invariants on every CI run, and the
  bisection tier reconciles with the reference engine's miss count;
* a process-engine multidisk run with ``observe_every_slot()`` so the
  trace carries every ``channel.deliver`` slot
  (``broadcast-smoke.jsonl``), then the ``repro.obs summary`` §2.1
  fixed-gap check over it — the run fails unless every page's
  inter-arrival variance is exactly zero — and the ``repro.obs
  analyze`` attribution document (``broadcast-analyze.json``).

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py --out obs-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cache.base import PolicyContext
from repro.cache.registry import make_policy
from repro.core.programs import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import sweep_results
from repro.experiments.simengine import ClientSpec, ProcessEngine
from repro.obs.analyze import analyze
from repro.obs.cli import main as obs_main
from repro.obs.cli import summarise
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import MonitorSuite
from repro.obs.profile import Profiler
from repro.obs.trace import JsonlSink, Tracer, read_jsonl
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import generate_trace
from repro.workload.zipf import ZipfRegionDistribution


def _fig5_configs():
    return [
        ExperimentConfig(
            disk_sizes=(50, 200, 250),
            delta=delta,
            cache_size=50,
            policy="LIX",
            access_range=100,
            region_size=10,
            num_requests=600,
            seed=7,
            label=f"fig5-smoke Δ={delta}",
        )
        for delta in range(4)
    ]


def traced_fig5_sweep(out: Path) -> None:
    """The reduced fig5 sweep: traced, profiled, strictly monitored."""
    configs = _fig5_configs()
    trace_path = out / "fig5-smoke.jsonl"
    manifest_path = out / "fig5-smoke-manifest.json"
    profile_path = out / "fig5-smoke-profile.json"
    metrics = MetricsRegistry()
    profile = Profiler()
    monitors = MonitorSuite(mode="strict")
    with Tracer(JsonlSink(str(trace_path))) as tracer:
        results = sweep_results(
            configs,
            tracer=tracer,
            metrics=metrics,
            manifest=str(manifest_path),
            profile=profile,
            monitors=monitors,
            progress=lambda done, total, result: print(
                f"  [{done}/{total}] {result.summary()}"
            ),
        )
    assert len(results) == len(configs)
    assert monitors.ok, monitors.snapshot()

    # The profiler's tier attribution must reconcile exactly with the
    # schedules' own dispatch counters (via the sweep manifest's
    # build-cache block) and with the engine's miss count: every miss
    # resolves through exactly one next_arrival tier.
    manifest = json.loads(manifest_path.read_text())
    cache_queries = manifest["build_cache"]["queries"]
    assert cache_queries == profile.snapshot()["tiers"], (
        f"tier counts diverge: build cache {cache_queries} "
        f"vs profiler {profile.snapshot()['tiers']}"
    )
    misses = profile.counters.get("engine.fast.misses", 0)
    assert profile.tier_total == misses, (
        f"tier total {profile.tier_total} != engine misses {misses}"
    )
    profile_path.write_text(
        json.dumps(profile.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    records = sum(1 for _ in read_jsonl(str(trace_path)))
    print(f"  trace    : {trace_path} ({records} records)")
    print(f"  manifest : {manifest_path} "
          f"({metrics.snapshot()['runs']} runs aggregated)")
    print(f"  profile  : {profile_path} "
          f"(tier counts reconcile with timing_stats: {cache_queries})")
    print(f"  monitors : strict, {monitors.runs} runs, 0 violations")


def strict_reference_grid() -> None:
    """The fig5 grid under fast-reference, strictly monitored and profiled."""
    monitors = MonitorSuite(mode="strict")
    profile = Profiler()
    results = sweep_results(
        _fig5_configs(), engine="fast-reference", monitors=monitors,
        profile=profile,
    )
    assert len(results) == 4
    assert monitors.ok, monitors.snapshot()
    misses = profile.counters.get("engine.reference.misses", 0)
    assert misses > 0 and profile.tier_total == misses, (
        f"tier total {profile.tier_total} != reference misses {misses}"
    )
    assert profile.tiers["bisect"] == misses, profile.tiers
    print(f"  fast-reference: strict monitors over {monitors.runs} runs, "
          f"{monitors.observed} records checked, 0 violations; "
          f"{misses} misses all timed by bisection")


def traced_broadcast(out: Path) -> Path:
    """A process-engine run observing every broadcast slot."""
    layout, schedule = ProgramSpec(
        sizes=(2, 4, 8), rel_freqs=(4, 2, 1)
    ).build()
    trace_path = out / "broadcast-smoke.jsonl"
    with Tracer(JsonlSink(str(trace_path))) as tracer:
        engine = ProcessEngine(schedule, layout, tracer=tracer)
        engine.channel.observe_every_slot()
        distribution = ZipfRegionDistribution(
            access_range=14, region_size=2, theta=0.95
        )
        engine.add_client(
            ClientSpec(
                mapping=LogicalPhysicalMapping(layout),
                cache=make_policy("LRU", 4, PolicyContext(num_disks=3)),
                trace=generate_trace(
                    distribution, 400, RandomStreams(3).stream("requests")
                ),
            )
        )
        engine.run()
    print(f"  trace    : {trace_path}")
    return trace_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="obs-artifacts",
        help="artifact directory (default: obs-artifacts)",
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("== traced + profiled + monitored fig5 smoke sweep ==")
    traced_fig5_sweep(out)

    print("== strict monitors + profiler on the fast-reference engine ==")
    strict_reference_grid()

    print("== traced broadcast (every slot observed) ==")
    broadcast_trace = traced_broadcast(out)

    print("== repro.obs summary (§2.1 fixed-gap check) ==")
    code = obs_main(["summary", str(broadcast_trace)])
    if code != 0:
        print(f"summary CLI exited {code}", file=sys.stderr)
        return 1
    summary = summarise(list(read_jsonl(str(broadcast_trace))))
    broadcast = summary.get("broadcast")
    if broadcast is None or not broadcast["fixed_interarrival"]:
        print("FAIL: multidisk inter-arrival gaps are not fixed "
              f"(max variance {broadcast and broadcast['max_gap_variance']})",
              file=sys.stderr)
        return 1
    (out / "broadcast-summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    print("== repro.obs analyze (attribution tables) ==")
    code = obs_main([
        "analyze", str(broadcast_trace), "--disk-sizes", "2,4,8",
    ])
    if code != 0:
        print(f"analyze CLI exited {code}", file=sys.stderr)
        return 1
    analysis = analyze(
        list(read_jsonl(str(broadcast_trace))), disk_sizes=(2, 4, 8)
    )
    if "slot_utilization" not in analysis:
        print("FAIL: full-slot trace produced no slot_utilization section",
              file=sys.stderr)
        return 1
    (out / "broadcast-analyze.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True) + "\n"
    )
    print("fixed inter-arrival gaps confirmed; artifacts in", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
