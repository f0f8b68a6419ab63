"""CI smoke run for the observability stack.

Exercises the whole repro.obs surface end to end and leaves the
artifacts CI uploads:

* a reduced Figure-5 sweep (D5, Δ=0..3) with tracing, profiling, and
  strict invariant monitors **on**, writing a JSONL trace
  (``fig5-smoke.jsonl``), an aggregated sweep manifest
  (``fig5-smoke-manifest.json``), and the profile snapshot
  (``fig5-smoke-profile.json``) — and asserting that the profiler's
  ``engine.fast.misses`` equals the trace's ``client.miss`` records;
* ``repro.obs summary`` and ``repro.obs analyze`` over that trace, which
  holds four runs whose clocks each restart at zero: both must exit 0
  and the cache occupancy peak must stay within the cache size of 50
  (``fig5-analyze.json``);
* the same grid re-run under the ``fast-reference`` engine with strict
  monitors and a profiler, so both arithmetics of the engine's one loop
  are checked against the paper's invariants on every CI run, and the
  reference engine must book as many misses as the fast sweep (same
  loop, same grid);
* two process-engine multidisk runs with ``observe_every_slot()``,
  traced into one trace that carries every ``channel.deliver`` slot
  of both (``broadcast-smoke.jsonl``; the second run restarts the
  clock at zero), then the ``repro.obs summary`` §2.1 fixed-gap check
  over it — the run fails unless every page's inter-arrival variance
  is exactly zero — and the ``repro.obs analyze`` attribution document
  (``broadcast-analyze.json``), whose slot utilization must not exceed
  1.0;
* a cached LIX run on a two-channel program, traced
  (``multichannel-smoke.jsonl``): ``repro.obs summary`` and ``analyze``
  must exit 0 on it, and the per-client ``retunes`` of the analyze
  document (``multichannel-analyze.json``) must add up to the trace's
  ``client.retune`` records.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py --out obs-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.cache.base import PolicyContext
from repro.cache.registry import make_policy
from repro.core.programs import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, sweep_results
from repro.experiments.simengine import ClientSpec, ProcessEngine
from repro.obs.analyze import analyze
from repro.obs.cli import main as obs_main
from repro.obs.cli import summarise
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
            cache_size=FIG5_CACHE,
            policy="LIX",
            access_range=100,
            region_size=10,
            num_requests=600,
            seed=7,
            label=f"fig5-smoke Δ={delta}",
        )
        for delta in range(4)
    ]


#: The cache size of every fig5 smoke point.
FIG5_CACHE = 50

#: Process-engine runs in the full-broadcast trace; each restarts the
#: clock, so ``summary`` and ``analyze`` must split the trace into runs.
BROADCAST_RUNS = 2


def traced_fig5_sweep(out: Path) -> int:
    """The reduced fig5 sweep: traced, profiled, strictly monitored.

    Returns the sweep's ``engine.fast.misses``.
    """
    configs = _fig5_configs()
    trace_path = out / "fig5-smoke.jsonl"
    manifest_path = out / "fig5-smoke-manifest.json"
    profile_path = out / "fig5-smoke-profile.json"
    profile = Profiler()
    monitors = MonitorSuite(mode="strict")
    with Tracer(JsonlSink(str(trace_path)), monitors) as tracer:
        results = sweep_results(
            configs,
            tracer=tracer,
            manifest=str(manifest_path),
            profile=profile,
            progress=lambda done, total, result: print(
                f"  [{done}/{total}] {result.summary()}"
            ),
        )
    assert len(results) == len(configs)
    assert monitors.ok, monitors.snapshot()

    # The profiler's miss counter, booked after the loop, must equal
    # the misses the loop traced while it ran.
    kinds = Counter(record["kind"] for record in read_jsonl(str(trace_path)))
    misses = profile.counters.get("engine.fast.misses", 0)
    assert misses > 0 and misses == kinds["client.miss"], (
        f"engine.fast.misses {misses} != "
        f"{kinds['client.miss']} client.miss records"
    )
    profile_path.write_text(
        json.dumps(profile.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    print(f"  trace    : {trace_path} ({sum(kinds.values())} records)")
    manifest = json.loads(manifest_path.read_text())
    runs = manifest["summary"]["runs"]
    # The tracer's suite writes the manifest's monitors block.
    block = manifest["monitors"]
    assert block["runs"] == len(configs) and not block["violations"], block
    print(f"  manifest : {manifest_path} ({runs} runs aggregated, "
          f"monitors block {block['runs']} runs, 0 violations)")
    print(f"  profile  : {profile_path} "
          f"(engine.fast.misses {misses} == client.miss records)")
    print(f"  monitors : strict, {monitors.runs} runs, 0 violations")
    return misses


def analyze_fig5_trace(out: Path) -> int:
    """``summary`` and ``analyze`` over the four-run fig5 trace.

    Each plan restarts its clock, so the trace's cache records go back
    in time at every run boundary; both commands must walk the runs
    apart.  Returns the exit status.
    """
    trace_path = str(out / "fig5-smoke.jsonl")
    for command in ("summary", "analyze"):
        code = obs_main([command, trace_path])
        if code != 0:
            print(f"{command} CLI exited {code} on {trace_path}",
                  file=sys.stderr)
            return 1
    analysis = analyze(
        list(read_jsonl(trace_path)), disk_sizes=(50, 200, 250)
    )
    peak = analysis["cache_residency"]["occupancy_max"]
    if peak > FIG5_CACHE:
        print(f"FAIL: cache occupancy peak {peak} exceeds the cache size "
              f"{FIG5_CACHE}", file=sys.stderr)
        return 1
    (out / "fig5-analyze.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True) + "\n"
    )
    print(f"  analyze  : occupancy peak {peak:.0f} <= {FIG5_CACHE}")
    return 0


def strict_reference_grid(fast_misses: int) -> None:
    """The fig5 grid under fast-reference, strictly monitored and profiled.

    The reference arithmetic runs the same loop over the same grid, so
    it must book exactly the fast sweep's ``fast_misses``.
    """
    monitors = MonitorSuite(mode="strict")
    profile = Profiler()
    results = sweep_results(
        _fig5_configs(), engine="fast-reference", tracer=Tracer(monitors),
        profile=profile,
    )
    assert len(results) == 4
    assert monitors.ok, monitors.snapshot()
    misses = profile.counters.get("engine.reference.misses", 0)
    assert misses == fast_misses, (
        f"engine.reference.misses {misses} != "
        f"engine.fast.misses {fast_misses}"
    )
    print(f"  fast-reference: strict monitors over {monitors.runs} runs, "
          f"{monitors.observed} records checked, 0 violations; "
          f"{misses} misses, as many as the fast sweep")


def traced_broadcast(out: Path) -> Path:
    """Two process-engine runs observing every broadcast slot, traced
    into one trace; the second run restarts the clock at zero."""
    layout, schedule = ProgramSpec(
        sizes=(2, 4, 8), rel_freqs=(4, 2, 1)
    ).build()
    distribution = ZipfRegionDistribution(
        access_range=14, region_size=2, theta=0.95
    )
    trace_path = out / "broadcast-smoke.jsonl"
    with Tracer(JsonlSink(str(trace_path))) as tracer:
        for _run in range(BROADCAST_RUNS):
            engine = ProcessEngine(schedule, layout, tracer=tracer)
            engine.channel.observe_every_slot()
            engine.add_client(
                ClientSpec(
                    mapping=LogicalPhysicalMapping(layout),
                    cache=make_policy("LRU", 4, PolicyContext(num_disks=3)),
                    trace=generate_trace(
                        distribution, 400,
                        RandomStreams(3).stream("requests"),
                    ),
                )
            )
            engine.run()
    print(f"  trace    : {trace_path} ({BROADCAST_RUNS} runs)")
    return trace_path


def traced_multichannel(out: Path) -> int:
    """A cached C=2 run, traced; ``summary`` and ``analyze`` over it.

    The client switches channels, so the trace carries
    ``client.retune`` records, which the analyze document must count.
    Returns the exit status.
    """
    config = ExperimentConfig(
        disk_sizes=(50, 200, 250), delta=3, cache_size=10, policy="LIX",
        num_requests=200, seed=7, channels=2, access_range=500,
    )
    trace_path = str(out / "multichannel-smoke.jsonl")
    with Tracer(JsonlSink(trace_path)) as tracer:
        run_experiment(config, tracer=tracer)
    for command in ("summary", "analyze"):
        code = obs_main([command, trace_path])
        if code != 0:
            print(f"{command} CLI exited {code} on {trace_path}",
                  file=sys.stderr)
            return 1
    records = list(read_jsonl(trace_path))
    retunes = sum(record["kind"] == "client.retune" for record in records)
    analysis = analyze(records, disk_sizes=config.disk_sizes)
    counted = sum(
        row["retunes"] for row in analysis["client_latency"]["slowest"]
    )
    if retunes == 0 or counted != retunes:
        print(f"FAIL: analyze counts {counted} retunes, the trace holds "
              f"{retunes} client.retune records", file=sys.stderr)
        return 1
    (out / "multichannel-analyze.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True) + "\n"
    )
    print(f"  trace    : {trace_path} ({retunes} client.retune records, "
          "all counted by analyze)")
    return 0


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
    fast_misses = traced_fig5_sweep(out)

    print("== repro.obs summary + analyze over the four-run fig5 trace ==")
    if analyze_fig5_trace(out) != 0:
        return 1

    print("== strict monitors + profiler on the fast-reference engine ==")
    strict_reference_grid(fast_misses)

    print("== traced broadcast (every slot observed, two runs) ==")
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
    utilization = analysis.get("slot_utilization")
    if utilization is None:
        print("FAIL: full-slot trace produced no slot_utilization section",
              file=sys.stderr)
        return 1
    if utilization["utilization"] > 1.0:
        print("FAIL: slot utilization above 1.0 "
              f"({utilization['delivered_slots']} deliveries over "
              f"{utilization['observed_span']:.0f} slots)", file=sys.stderr)
        return 1
    (out / "broadcast-analyze.json").write_text(
        json.dumps(analysis, indent=2, sort_keys=True) + "\n"
    )
    print("fixed inter-arrival gaps confirmed")

    print("== repro.obs summary + analyze over a traced C=2 run ==")
    if traced_multichannel(out) != 0:
        return 1
    print("artifacts in", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
