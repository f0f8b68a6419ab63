"""CI smoke run for the observability stack.

Exercises the whole repro.obs surface end to end and leaves the
artifacts CI uploads:

* a reduced Figure-5 sweep (D5, Δ=0..3) with tracing, profiling, and
  strict invariant monitors **on**, writing a JSONL trace
  (``fig5-smoke.jsonl``), an aggregated sweep manifest
  (``fig5-smoke-manifest.json``), and the profile snapshot
  (``fig5-smoke-profile.json``) — and asserting that the profiler's
  ``engine.fast.misses`` equals the trace's ``client.miss`` records;
* the same grid re-run under the ``fast-reference`` engine with strict
  monitors and a profiler, so both arithmetics of the engine's one loop
  are checked against the paper's invariants on every CI run, and the
  reference engine must book as many misses as the fast sweep (same
  loop, same grid);
* two process-engine multidisk runs with ``observe_every_slot()``,
  traced into one trace that carries every ``channel.deliver`` slot
  of both (``broadcast-smoke.jsonl``; the second run restarts the
  clock at zero);
* a cached LIX run on a two-channel program, traced
  (``multichannel-smoke.jsonl``);
* one demand-driven process-engine run of the multidisk program
  (``demand-smoke.jsonl``), whose channel delivers only the broadcasts
  the client waits for.

``repro.obs summary --json`` then runs once per trace and writes its
report (``<trace>-report.json``), which must exit 0 and hold:

* fig5: the cache occupancy peak within the cache size of 50 over the
  four runs, whose clocks each restart at zero;
* broadcast: ``fixed_interarrival`` true over 2 of 2 checked runs —
  every page's inter-arrival variance exactly zero, the §2.1 check —
  and a slot utilization of at most 1.0;
* multichannel: per-client ``retunes`` adding up to the trace's
  ``client.retune`` records;
* demand: ``fixed_interarrival`` null, no run checked;
* broadcast and demand: a cache section from the process client's own
  ``cache.*`` records, with one admission per ``client.miss`` and an
  occupancy peak within the LRU capacity of 4.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py --out obs-artifacts
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
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
from repro.obs.analyze import render_analysis
from repro.obs.cli import main as obs_main
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
            disk_sizes=D5_SIZES,
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
#: clock, so ``summary`` must split the trace into runs.
BROADCAST_RUNS = 2

#: The LRU capacity of the client in both broadcast traces.
BROADCAST_CACHE = 4

#: The disk sizes of the fig5 and multichannel programs, and of the
#: multidisk program both broadcast traces air.
D5_SIZES = (50, 200, 250)
BROADCAST_SIZES = (2, 4, 8)


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


def report(out: Path, name: str, disk_sizes) -> dict | None:
    """``repro.obs summary --json`` over ``<name>-smoke.jsonl``.

    Writes the report to ``<name>-report.json``, prints its text form
    and returns it; ``None`` (after saying why) if the command failed.
    """
    trace_path = str(out / f"{name}-smoke.jsonl")
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = obs_main([
            "summary", trace_path, "--json",
            "--disk-sizes", ",".join(str(size) for size in disk_sizes),
        ])
    if code != 0:
        print(f"summary CLI exited {code} on {trace_path}", file=sys.stderr)
        return None
    (out / f"{name}-report.json").write_text(captured.getvalue())
    document = json.loads(captured.getvalue())
    print(render_analysis(document))
    return document


def check_fig5_report(out: Path) -> int:
    """The four-run fig5 trace's report: occupancy within the cache.

    Each plan restarts its clock, so the trace's cache records go back
    in time at every run boundary; the report must walk the runs
    apart.  Returns the exit status.
    """
    document = report(out, "fig5", D5_SIZES)
    if document is None:
        return 1
    peak = document["cache"]["occupancy_max"]
    if peak > FIG5_CACHE:
        print(f"FAIL: cache occupancy peak {peak} exceeds the cache size "
              f"{FIG5_CACHE}", file=sys.stderr)
        return 1
    print(f"  report   : occupancy peak {peak:.0f} <= {FIG5_CACHE}")
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


def traced_broadcast(out: Path, name: str, runs: int,
                     every_slot: bool) -> None:
    """``runs`` process-engine runs of the multidisk program traced into
    ``<name>-smoke.jsonl``; each run restarts the clock at zero.

    With ``every_slot`` the channel airs every slot
    (``observe_every_slot``); without it, the channel delivers only the
    broadcasts the client waits for.
    """
    layout, schedule = ProgramSpec(
        sizes=BROADCAST_SIZES, rel_freqs=(4, 2, 1)
    ).build()
    distribution = ZipfRegionDistribution(
        access_range=14, region_size=2, theta=0.95
    )
    trace_path = out / f"{name}-smoke.jsonl"
    with Tracer(JsonlSink(str(trace_path))) as tracer:
        for _run in range(runs):
            engine = ProcessEngine(schedule, layout, tracer=tracer)
            if every_slot:
                engine.channel.observe_every_slot()
            engine.add_client(
                ClientSpec(
                    mapping=LogicalPhysicalMapping(layout),
                    cache=make_policy("LRU", BROADCAST_CACHE,
                                      PolicyContext(num_disks=3)),
                    trace=generate_trace(
                        distribution, 400,
                        RandomStreams(3).stream("requests"),
                    ),
                )
            )
            engine.run()
    print(f"  trace    : {trace_path} ({runs} run(s))")


def check_client_cache(out: Path, name: str, document: dict) -> int:
    """A broadcast trace's cache section: the process client's own
    ``cache.*`` records, one admission per ``client.miss`` and the
    occupancy within the LRU capacity.  Returns the exit status."""
    cache = document.get("cache")
    misses = sum(
        record["kind"] == "client.miss"
        for record in read_jsonl(str(out / f"{name}-smoke.jsonl"))
    )
    if (cache is None or cache["admissions"] != misses
            or cache["occupancy_max"] > BROADCAST_CACHE):
        print(f"FAIL: the {name} trace's cache section {cache} does not "
              f"hold {misses} admissions within capacity {BROADCAST_CACHE}",
              file=sys.stderr)
        return 1
    print(f"  cache    : {misses} admissions, one per client.miss; "
          f"occupancy peak {cache['occupancy_max']:.0f} <= {BROADCAST_CACHE}")
    return 0


def check_broadcast_report(out: Path) -> int:
    """The every-slot trace's report: fixed gaps over every run, no
    more deliveries than slots, and the client's cache records.
    Returns the exit status."""
    document = report(out, "broadcast", BROADCAST_SIZES)
    if document is None or check_client_cache(out, "broadcast", document):
        return 1
    broadcast = document.get("broadcast")
    if broadcast is None:
        print("FAIL: full-slot trace produced no broadcast section",
              file=sys.stderr)
        return 1
    if (broadcast["fixed_interarrival"] is not True
            or broadcast["runs_checked"] != BROADCAST_RUNS
            or broadcast["runs"] != BROADCAST_RUNS):
        print("FAIL: multidisk inter-arrival gaps are not fixed over "
              f"every run (verdict {broadcast['fixed_interarrival']}, "
              f"{broadcast['runs_checked']} of {broadcast['runs']} runs "
              f"checked, max variance {broadcast['max_gap_variance']})",
              file=sys.stderr)
        return 1
    if broadcast["utilization"] > 1.0:
        print("FAIL: slot utilization above 1.0 "
              f"({broadcast['delivered_slots']} deliveries over "
              f"{broadcast['observed_span']:.0f} slots)", file=sys.stderr)
        return 1
    print(f"fixed inter-arrival gaps confirmed over {BROADCAST_RUNS} of "
          f"{BROADCAST_RUNS} runs")
    return 0


def check_demand_report(out: Path) -> int:
    """The demand-driven trace's report: no run checked, verdict null,
    and the client's cache records.

    Its channel delivered only the broadcasts the client waited for,
    whose gaps are multiples of the program's.  Returns the exit status.
    """
    document = report(out, "demand", BROADCAST_SIZES)
    if document is None or check_client_cache(out, "demand", document):
        return 1
    broadcast = document["broadcast"]
    if (broadcast["fixed_interarrival"] is not None
            or broadcast["runs_checked"] != 0):
        print("FAIL: a demand-driven trace was checked for fixed gaps "
              f"(verdict {broadcast['fixed_interarrival']}, "
              f"{broadcast['runs_checked']} of {broadcast['runs']} runs)",
              file=sys.stderr)
        return 1
    print(f"  report   : fixed gaps not checked (0 of {broadcast['runs']} "
          "runs aired a slot nobody waited for)")
    return 0


def traced_multichannel(out: Path) -> int:
    """A cached C=2 run, traced, and its report.

    The client switches channels, so the trace carries
    ``client.retune`` records, which the report must count.  Returns
    the exit status.
    """
    config = ExperimentConfig(
        disk_sizes=D5_SIZES, delta=3, cache_size=10, policy="LIX",
        num_requests=200, seed=7, channels=2, access_range=500,
    )
    trace_path = str(out / "multichannel-smoke.jsonl")
    with Tracer(JsonlSink(trace_path)) as tracer:
        run_experiment(config, tracer=tracer)
    document = report(out, "multichannel", config.disk_sizes)
    if document is None:
        return 1
    retunes = sum(
        record["kind"] == "client.retune" for record in read_jsonl(trace_path)
    )
    counted = sum(
        row["retunes"] for row in document["responses"]["slowest"]
    )
    if retunes == 0 or counted != retunes:
        print(f"FAIL: the report counts {counted} retunes, the trace holds "
              f"{retunes} client.retune records", file=sys.stderr)
        return 1
    print(f"  trace    : {trace_path} ({retunes} client.retune records, "
          "all counted by the report)")
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

    print("== repro.obs summary over the four-run fig5 trace ==")
    if check_fig5_report(out) != 0:
        return 1

    print("== strict monitors + profiler on the fast-reference engine ==")
    strict_reference_grid(fast_misses)

    print("== traced broadcast (every slot observed, two runs) ==")
    traced_broadcast(out, "broadcast", BROADCAST_RUNS, every_slot=True)

    print("== repro.obs summary (§2.1 fixed-gap check, slot accounting) ==")
    if check_broadcast_report(out) != 0:
        return 1

    print("== repro.obs summary over a traced C=2 run ==")
    if traced_multichannel(out) != 0:
        return 1

    print("== traced demand-driven broadcast (one run) ==")
    traced_broadcast(out, "demand", 1, every_slot=False)

    print("== repro.obs summary (demand-driven: fixed gaps not checked) ==")
    if check_demand_report(out) != 0:
        return 1
    print("artifacts in", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
