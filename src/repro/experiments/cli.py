"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate paper tables/figures (same registry as the bench harness)
    and print them as aligned tables; optionally write CSVs.
``run``
    Run a single experiment specified by flags and print its summary.
``inspect``
    Print the structural and timing properties of a broadcast program
    (period, utilisation, per-disk inter-arrivals, delay quantiles).
``policies``
    List the available cache replacement policies.
``population``
    Simulate a declarative client fleet (:mod:`repro.population`) —
    either the built-in demo fleet or a ``--spec`` JSON file — and
    print the overall and per-segment rollups.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.cache.registry import available_policies
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program
from repro.exec.plan import ENGINES
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table, write_csv
from repro.experiments.runner import run_experiment
from repro.errors import ReproError

def _hybrid_study_entry():
    """Hybrid push/pull population scaling (see repro.hybrid)."""
    from repro.hybrid.study import hybrid_population_study

    return hybrid_population_study(
        populations=(1, 8, 32, 128), requests_per_client=150, pull_spacing=2
    )


#: artifact name -> (callable, accepts num_requests/seed kwargs,
#: accepts jobs/engine kwargs)
ARTIFACTS: Dict[str, Tuple] = {
    "table1": (figures.table1, False, False),
    "fig5": (figures.figure5, True, True),
    "fig6": (figures.figure6, True, True),
    "fig7": (figures.figure7, True, True),
    "fig8": (figures.figure8, True, True),
    "fig9": (figures.figure9, True, True),
    "fig10": (figures.figure10, True, True),
    "fig11": (figures.figure11, True, True),
    "fig13": (figures.figure13, True, True),
    "fig14": (figures.figure14, True, True),
    "fig15": (figures.figure15, True, True),
    "busstop": (figures.bus_stop_paradox, False, False),
    "shaping": (figures.shaping_ablation, True, False),
    "prefetch": (figures.prefetch_comparison, True, False),
    "zoo": (figures.policy_zoo, True, False),
    "indexing": (figures.indexing_tradeoff, False, False),
    "indexed-multidisk": (figures.indexed_multidisk_study, False, False),
    "volatility": (figures.volatility_study, True, False),
    "drift": (figures.drift_study, True, False),
    "query": (figures.query_study, False, False),
    "multichannel": (figures.multichannel_study, True, True),
    "hybrid": (_hybrid_study_entry, False, False),
}


def _parse_sizes(text: str) -> Tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"disk sizes must be comma-separated integers, got {text!r}"
        )
    if not sizes:
        raise argparse.ArgumentTypeError("need at least one disk size")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Broadcast Disks (SIGMOD '95) reproduction toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figures_cmd = commands.add_parser(
        "figures", help="regenerate paper tables/figures"
    )
    figures_cmd.add_argument(
        "artifacts", nargs="+",
        help=f"artifacts to run ({', '.join(ARTIFACTS)}, or 'all')",
    )
    figures_cmd.add_argument("--requests", type=int, default=None)
    figures_cmd.add_argument("--seed", type=int, default=42)
    figures_cmd.add_argument("--csv-dir", default=None)
    figures_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per sweep (results identical at any count)",
    )
    figures_cmd.add_argument(
        "--engine", default="fast", choices=list(ENGINES),
        help="simulation engine for the paper-figure sweeps",
    )
    figures_cmd.add_argument(
        "--profile", action="store_true",
        help="profile the sweeps (phase timings, engine counters); "
             "forces serial execution",
    )

    run_cmd = commands.add_parser("run", help="run one experiment")
    run_cmd.add_argument("--disks", type=_parse_sizes, default=(500, 2000, 2500),
                         help="comma-separated disk sizes (default D5)")
    run_cmd.add_argument("--delta", type=int, default=3)
    run_cmd.add_argument("--cache", type=int, default=1)
    run_cmd.add_argument("--policy", default="LRU",
                         choices=[*available_policies(), "lru2"])
    run_cmd.add_argument("--noise", type=float, default=0.0)
    run_cmd.add_argument("--offset", type=int, default=0)
    run_cmd.add_argument("--requests", type=int, default=15_000)
    run_cmd.add_argument("--access-range", type=int, default=1000)
    run_cmd.add_argument("--region-size", type=int, default=50)
    run_cmd.add_argument("--theta", type=float, default=0.95)
    run_cmd.add_argument("--seed", type=int, default=42)
    run_cmd.add_argument("--engine", default="fast",
                         choices=list(ENGINES))
    run_cmd.add_argument(
        "--profile", action="store_true",
        help="print the run's profile (phase timings, engine counters)",
    )

    inspect_cmd = commands.add_parser(
        "inspect", help="show a broadcast program's properties"
    )
    inspect_cmd.add_argument("--disks", type=_parse_sizes, required=True)
    inspect_cmd.add_argument("--delta", type=int, default=1)

    commands.add_parser("policies", help="list cache policies")

    population_cmd = commands.add_parser(
        "population", help="simulate a declarative client fleet"
    )
    population_cmd.add_argument(
        "--spec", default=None,
        help="JSON fleet spec (see docs/POPULATION.md); "
             "default: a built-in demo fleet",
    )
    population_cmd.add_argument(
        "--clients", type=int, default=None,
        help="scale the fleet to this many clients "
             "(proportional across segments)",
    )
    population_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results identical at any count)",
    )
    population_cmd.add_argument("--seed", type=int, default=None,
                                help="override the spec's seed")
    population_cmd.add_argument(
        "--engine", default=None, choices=list(ENGINES),
        help="override the spec's engine",
    )
    population_cmd.add_argument("--manifest", default=None,
                                help="write the population manifest here")
    population_cmd.add_argument(
        "--checkpoint", default=None,
        help="JSONL journal; an interrupted fleet resumes client-by-client",
    )
    population_cmd.add_argument(
        "--profile", action="store_true",
        help="profile the fleet run; forces serial execution",
    )
    return parser


def _make_profiler(args):
    """A Profiler when ``--profile`` was given, else None."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs.profile import Profiler

    return Profiler()


def _command_figures(args) -> int:
    names = list(ARTIFACTS) if args.artifacts == ["all"] else args.artifacts
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
    profiler = _make_profiler(args)
    for name in names:
        builder, scalable, parallel = ARTIFACTS[name]
        kwargs = {}
        if scalable:
            kwargs["seed"] = args.seed
            if args.requests is not None:
                kwargs["num_requests"] = args.requests
        if parallel:
            kwargs["jobs"] = args.jobs
            kwargs["engine"] = args.engine
            if profiler is not None:
                kwargs["profile"] = profiler
        elif profiler is not None:
            print(f"note: {name} does not support --profile; "
                  "profiling the sweep-based artifacts only")
        data = builder(**kwargs)
        print(format_table(data))
        if args.csv_dir:
            path = os.path.join(args.csv_dir, f"{name}.csv")
            write_csv(data, path)
            print(f"wrote {path}\n")
    if profiler is not None:
        print(profiler.report())
    return 0


def _command_run(args) -> int:
    config = ExperimentConfig(
        disk_sizes=args.disks,
        delta=args.delta,
        cache_size=args.cache,
        policy=args.policy,
        noise=args.noise,
        offset=args.offset,
        num_requests=args.requests,
        access_range=args.access_range,
        region_size=args.region_size,
        theta=args.theta,
        seed=args.seed,
    )
    profiler = _make_profiler(args)
    result = run_experiment(config, engine=args.engine, profile=profiler)
    print(result.summary())
    print(f"  measured requests : {result.measured_requests}")
    print(f"  warm-up requests  : {result.warmup_requests}")
    print(f"  response stddev   : {result.response_stats.stddev:.1f} bu")
    locations = ", ".join(
        f"{place}={value:.1%}"
        for place, value in result.access_locations.items()
    )
    print(f"  access locations  : {locations}")
    print(f"  wall time         : {result.wall_seconds:.2f} s")
    if profiler is not None:
        print(profiler.report())
    return 0


def _command_inspect(args) -> int:
    from repro.core.validate import validate_program

    layout = DiskLayout.from_delta(args.disks, args.delta)
    program = _multidisk_program(layout)
    print(f"layout        : {layout.describe()} (delta={args.delta})")
    print(f"period        : {program.period} broadcast units")
    print(f"padding slots : {program.empty_slots} "
          f"({program.empty_slots / program.period:.2%})")
    shares = layout.bandwidth_shares()
    for disk in range(layout.num_disks):
        page = layout.pages_on_disk(disk)[0]
        gap = int(program.gaps(page)[0])
        print(
            f"disk {disk + 1}: {layout.sizes[disk]} pages @ rel_freq "
            f"{layout.rel_freqs[disk]}  share={shares[disk]:.1%}  "
            f"inter-arrival={gap}  E[wait]={program.expected_delay(page):.1f}  "
            f"p90={program.delay_quantile(page, 0.9):.1f}"
        )
    print("audit (§2.1 desiderata):")
    for line in validate_program(program).summary().splitlines():
        print(f"  {line}")
    return 0


def _demo_population_spec():
    """The built-in demo fleet: a small heterogeneous three-segment mix."""
    from repro.population import (
        Choice, PopulationSpec, SegmentSpec, Uniform, UniformInt,
    )

    base = ExperimentConfig(
        disk_sizes=(300, 1200, 3500),  # the paper's D4
        delta=3,
        cache_size=500,
        policy="LIX",
        num_requests=2_000,
    )
    return PopulationSpec(
        name="demo-fleet",
        base=base,
        seed=42,
        segments=(
            SegmentSpec(
                "commuters", 12,
                cache_size=UniformInt(100, 500),
                noise=Uniform(0.0, 0.3),
                policy=Choice(("LRU", "LIX")),
            ),
            SegmentSpec(
                "dashboards", 6,
                think_time=Uniform(0.0, 1.0),
                offset=UniformInt(0, 500),
            ),
            SegmentSpec(
                "drifters", 6,
                drift_rotations=Uniform(0.0, 2.0),
            ),
        ),
    )


def _command_population(args) -> int:
    import json
    from dataclasses import replace

    from repro.exec.checkpoint import SweepCheckpoint
    from repro.population import run_population, scale_spec, spec_from_dict

    if args.spec is not None:
        with open(args.spec) as handle:
            spec = spec_from_dict(json.load(handle))
    else:
        spec = _demo_population_spec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.engine is not None:
        spec = replace(spec, engine=args.engine)
    if args.clients is not None:
        spec = scale_spec(spec, args.clients)

    checkpoint = (
        SweepCheckpoint(args.checkpoint) if args.checkpoint else None
    )
    if checkpoint is not None and checkpoint.resumed:
        print(f"checkpoint: resuming past {checkpoint.resumed} "
              f"journalled clients")
    profiler = _make_profiler(args)
    result = run_population(
        spec,
        jobs=args.jobs,
        checkpoint=checkpoint,
        manifest=args.manifest,
        profile=profiler,
    )
    print(result.summary())
    header = (
        f"  {'segment':<14} {'clients':>7} {'mean':>8} {'p50':>8} "
        f"{'p90':>8} {'p99':>8} {'fairness':>8} {'hit rate':>8}"
    )
    print(header)
    rows = [("overall", result.overall)] + list(result.segments.items())
    for name, aggregate in rows:
        snap = aggregate.snapshot()
        print(
            f"  {name:<14} {snap['clients']:>7} "
            f"{snap['response_mean']['mean']:>8.1f} "
            f"{snap['percentiles']['p50']:>8.1f} "
            f"{snap['percentiles']['p90']:>8.1f} "
            f"{snap['percentiles']['p99']:>8.1f} "
            f"{snap['fairness']:>8.3f} "
            f"{snap['hit_rate']:>8.1%}"
        )
    if args.manifest:
        print(f"wrote {args.manifest}")
    if profiler is not None:
        print(profiler.report())
    return 0


def _command_policies(_args) -> int:
    print("available cache replacement policies:")
    descriptions = {
        "P": "idealised: evict the lowest access probability",
        "PIX": "idealised cost-based: evict the lowest probability/frequency",
        "LRU": "least recently used",
        "L": "LIX without the frequency term (implementable P analogue)",
        "LIX": "per-disk LRU chains, estimate/frequency eviction (§5.5)",
        "LRU-K": "[ONei93] backward K-distance (extension baseline)",
        "2Q": "[John94] A1in/A1out/Am (extension baseline)",
    }
    for name in available_policies():
        print(f"  {name:<6} {descriptions.get(name, '')}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "figures": _command_figures,
        "run": _command_run,
        "inspect": _command_inspect,
        "policies": _command_policies,
        "population": _command_population,
    }[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
