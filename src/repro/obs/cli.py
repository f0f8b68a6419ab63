"""``python -m repro.obs`` — the observatory's command-line surface.

Three subcommands:

* ``summary`` reads a trace produced by a
  :class:`repro.obs.trace.JsonlSink` and reports, per section and only
  for the record kinds present: an **overview** (record counts by kind,
  simulated time span), the **broadcast** per-page inter-arrival check
  (on a correct multi-disk program every page's gap variance is exactly
  zero — the §2.1 fixed-inter-arrival property, the Bus Stop Paradox
  check), a **responses** hit/miss/wait breakdown with a wait-time
  histogram, and **cache** admission/eviction/residency totals.  Given
  a run, sweep or fleet *manifest* (a JSON document, not JSONL)
  instead, it pretty-prints the manifest's headline (one row per
  segment for a fleet), profile, and monitor blocks.
* ``analyze`` runs the deeper :mod:`repro.obs.analyze` attribution over
  a trace: response time by disk, broadcast slot utilization, cache
  residency, and per-client latency with Jain fairness.
* ``regress`` is the benchmark regression gate
  (:mod:`repro.obs.regress`): compare fresh ``BENCH_*.json`` documents
  against the recorded ``results/bench_history.jsonl`` baseline and
  exit 1 on a regression (the CI wiring).

Exit codes follow the repro CLI convention: 0 on success, 1 on a failed
gate, 2 on usage errors (unknown command, unreadable input).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.obs.analyze import (
    analyze,
    cache_residency,
    delivery_runs,
    render_analysis,
)
from repro.obs.manifest import read_manifest
from repro.obs.regress import (
    DEFAULT_HISTORY,
    DEFAULT_REL_FLOOR,
    DEFAULT_SIGMA,
    render_markdown,
    render_text,
    run_gate,
)
from repro.obs.trace import (
    CLIENT_HIT,
    CLIENT_MISS,
    CLIENT_WAIT,
    read_jsonl,
)
from repro.population.run import POPULATION_SCHEMA
from repro.sim.stats import Histogram, RunningStats

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: Gap variance below this counts as "fixed" (§2.1); trace timestamps
#: are sums of unit slots, so true fixed gaps come out exactly equal.
FIXED_GAP_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def overview(records: List[dict]) -> Dict:
    """Record totals by kind plus the simulated time span."""
    by_kind: Dict[str, int] = {}
    for record in records:
        by_kind[record["kind"]] = by_kind.get(record["kind"], 0) + 1
    times = [record["t"] for record in records]
    return {
        "records": len(records),
        "kinds": by_kind,
        "time_span": [min(times), max(times)] if times else [0.0, 0.0],
    }


def interarrival_summary(records: List[dict], top: int = 5) -> Optional[Dict]:
    """Per-page inter-arrival stats from ``channel.deliver`` records.

    Gaps are taken within a run (:func:`~repro.obs.analyze.delivery_runs`):
    the gap across a restarted clock is no gap of the program.
    """
    arrivals: Dict[int, int] = {}
    gaps: Dict[int, RunningStats] = {}
    for run in delivery_runs(records):
        last: Dict[int, float] = {}
        for record in run:
            page, now = record["page"], record["t"]
            arrivals[page] = arrivals.get(page, 0) + 1
            if page in last:
                stats = gaps.get(page)
                if stats is None:
                    stats = gaps[page] = RunningStats()
                stats.add(now - last[page])
            last[page] = now
    if not arrivals:
        return None
    max_variance = max(
        (stats.variance for stats in gaps.values()), default=0.0
    )
    worst = sorted(
        gaps.items(), key=lambda item: (-item[1].variance, item[0])
    )[:top]
    return {
        "pages_observed": len(arrivals),
        "pages_with_gaps": len(gaps),
        "max_gap_variance": max_variance,
        "fixed_interarrival": max_variance <= FIXED_GAP_TOLERANCE,
        "pages": [
            {
                "page": page,
                "arrivals": arrivals[page],
                "mean_gap": stats.mean,
                "gap_variance": stats.variance,
            }
            for page, stats in worst
        ],
    }


def response_summary(records: List[dict], bins: int = 8) -> Optional[Dict]:
    """Hit/miss/wait breakdown from the ``client.*`` records."""
    hits = sum(1 for r in records if r["kind"] == CLIENT_HIT)
    misses = sum(1 for r in records if r["kind"] == CLIENT_MISS)
    waits = [r["wait"] for r in records if r["kind"] == CLIENT_WAIT]
    if not (hits or misses or waits):
        return None
    stats = RunningStats()
    stats.extend(waits)
    summary: Dict = {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        "waits": {
            "count": stats.count,
            "mean": stats.mean,
            "stddev": stats.stddev,
            "max": stats.maximum if stats.count else 0.0,
        },
    }
    if waits and max(waits) > 0:
        histogram = Histogram(0.0, max(waits), bins)
        for wait in waits:
            histogram.add(wait)
        summary["wait_histogram"] = [
            {"lo": lo, "hi": hi, "count": count}
            for lo, hi, count in histogram.nonempty()
        ] + (
            [{"lo": histogram.high, "hi": None, "count": histogram.overflow}]
            if histogram.overflow
            else []
        )
    return summary


def cache_summary(records: List[dict], top: int = 5) -> Optional[Dict]:
    """Admission/eviction totals and residency timeline from ``cache.*``."""
    walk = cache_residency(records, top)
    return None if walk is None else {
        key: walk[key] for key in ("admissions", "evictions", "rejections",
                                   "discards", "longest_resident")
    }


def summarise(records: List[dict], top: int = 5) -> Dict:
    """The full summary document for one trace."""
    summary: Dict = {"overview": overview(records)}
    for name, section in (
        ("broadcast", interarrival_summary(records, top)),
        ("responses", response_summary(records)),
        ("cache", cache_summary(records, top)),
    ):
        if section is not None:
            summary[name] = section
    return summary


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _print_summary(summary: Dict) -> None:
    info = summary["overview"]
    lo, hi = info["time_span"]
    print(f"records      : {info['records']}")
    print(f"time span    : [{lo:.1f}, {hi:.1f}] bu")
    for kind in sorted(info["kinds"]):
        print(f"  {kind:<16} {info['kinds'][kind]}")

    broadcast = summary.get("broadcast")
    if broadcast:
        verdict = "yes" if broadcast["fixed_interarrival"] else "NO"
        print("\nbroadcast inter-arrival (§2.1 fixed-gap check)")
        print(f"  pages observed   : {broadcast['pages_observed']}")
        print(f"  max gap variance : {broadcast['max_gap_variance']:.3g}")
        print(f"  fixed gaps       : {verdict}")
        for row in broadcast["pages"]:
            print(
                f"    page {row['page']:<6} arrivals={row['arrivals']:<5} "
                f"mean gap={row['mean_gap']:.2f} "
                f"variance={row['gap_variance']:.3g}"
            )

    responses = summary.get("responses")
    if responses:
        waits = responses["waits"]
        print("\nresponse breakdown")
        print(f"  hits / misses : {responses['hits']} / {responses['misses']}"
              f"  (hit rate {responses['hit_rate']:.1%})")
        print(f"  waits         : n={waits['count']} mean={waits['mean']:.2f}"
              f" stddev={waits['stddev']:.2f} max={waits['max']:.2f}")
        for bucket in responses.get("wait_histogram", []):
            hi_edge = bucket["hi"]
            label = (
                f"[{bucket['lo']:.1f}, {hi_edge:.1f})"
                if hi_edge is not None
                else f">= {bucket['lo']:.1f}"
            )
            print(f"    {label:<20} {bucket['count']}")

    cache = summary.get("cache")
    if cache:
        print("\ncache activity")
        print(f"  admissions : {cache['admissions']} "
              f"(rejections {cache['rejections']})")
        print(f"  evictions  : {cache['evictions']}  "
              f"discards : {cache['discards']}")
        if cache["longest_resident"]:
            print("  longest residency:")
            for row in cache["longest_resident"]:
                owner = f"{row['client']} " if "client" in row else ""
                print(f"    {owner}page {row['page']:<6} "
                      f"{row['resident_time']:.1f} bu")


# ---------------------------------------------------------------------------
# manifest summaries
# ---------------------------------------------------------------------------

def _load_manifest(path: str) -> Optional[Dict]:
    """The file's manifest document, or None if it is a JSONL trace.

    Run and sweep manifests are indented JSON objects carrying a
    ``schema`` tag, so their first line is a lone ``{``; a trace holds
    one compact record per line and never opens that way.  A file that
    opens like a manifest is read as one, so a manifest cut mid-write
    raises :class:`ConfigurationError` as a torn manifest instead of
    failing as a malformed trace.
    """
    try:
        with open(path) as handle:
            opening = handle.readline().strip()
    except (OSError, UnicodeDecodeError):
        # Unreadable paths fall through to the trace loader, which
        # reports them.
        return None
    if opening != "{":
        return None
    document = read_manifest(path)
    if isinstance(document, dict) and "schema" in document:
        return document
    return None


def _print_profile_block(profile: Dict) -> None:
    phases = profile.get("phase_seconds", {})
    if phases:
        print("  phases:")
        for name in sorted(phases):
            print(f"    {name:<12} {phases[name]:.3f}s")
    counters = profile.get("counters", {})
    if counters:
        print("  counters:")
        for name in sorted(counters):
            print(f"    {name:<28} {counters[name]}")
    for name in sorted(profile.get("peaks", {})):
        print(f"  peak {name}: {profile['peaks'][name]}")


def _print_monitors_block(monitors: Dict) -> None:
    verdict = "VIOLATED" if monitors.get("violations") else "OK"
    print(f"  runs checked : {monitors.get('runs', 0)}  "
          f"mode={monitors.get('mode', 'record')}  verdict={verdict}")
    for violation in monitors.get("violations", []):
        run = violation.get("run", "")
        where = f" [{run}]" if run else ""
        print(f"    t={violation.get('time', 0.0):.1f} "
              f"{violation.get('monitor')}/{violation.get('invariant')}"
              f"{where}: {violation.get('message')}")


def _print_population(document: Dict) -> None:
    """The fleet headline and one rollup row per segment."""
    print(f"engine       : {document['engine']}")
    print(f"seed         : {document['seed']}")
    print(f"clients      : {document['num_clients']}")
    print(f"wall time    : {document['total_wall_seconds']:.3f}s")
    rows = [("overall", document["summary"]),
            *document["segments"].items()]
    width = max(len(name) for name, _block in rows)
    print(f"\n{'segment':<{width}}  clients      mean       p99  "
          "fairness  hit rate")
    for name, block in rows:
        print(f"{name:<{width}}  {block['clients']:>7}  "
              f"{block['response_mean']['mean']:>8.2f}  "
              f"{block['percentiles']['p99']:>8.2f}  "
              f"{block['fairness']:>8.3f}  {block['hit_rate']:>8.1%}")


def _print_manifest(document: Dict) -> None:
    """Human-readable headline view of a run, sweep or fleet manifest."""
    print(f"schema       : {document['schema']}")
    if "label" in document:
        print(f"label        : {document['label']}")
    if "name" in document:
        print(f"name         : {document['name']}")
    summary = document.get("summary")
    if document["schema"] == POPULATION_SCHEMA:
        _print_population(document)
    elif summary is not None:  # sweep manifest
        print(f"runs         : {summary['runs']}")
        print(f"wall time    : {summary['total_wall_seconds']:.3f}s")
        print(f"measured     : {summary['total_measured_requests']} requests")
        print(f"mean response: [{summary['mean_response_time_min']:.2f}, "
              f"{summary['mean_response_time_max']:.2f}] bu")
    if "mean_response_time" in document:  # run manifest
        print(f"mean response: {document['mean_response_time']:.3f} bu")
        print(f"hit rate     : {document['hit_rate']:.1%}")
        print(f"measured     : {document['measured_requests']} requests "
              f"(+{document['warmup_requests']} warm-up)")
        print(f"config hash  : {document['config_hash'][:16]}…")
    profile = document.get("profile")
    if profile is not None:
        print("\nprofile")
        _print_profile_block(profile)
    monitors = document.get("monitors")
    if monitors is not None:
        print("\nmonitors")
        _print_monitors_block(monitors)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Inspect traces, manifests, and benchmark history "
                    "from the repro.obs observatory.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summary_cmd = commands.add_parser(
        "summary", help="summarise one JSONL trace or JSON manifest"
    )
    summary_cmd.add_argument(
        "trace", help="path to a JSONL trace or a run/sweep manifest"
    )
    summary_cmd.add_argument(
        "--top", type=int, default=5,
        help="rows per ranked table (default 5)",
    )
    summary_cmd.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON instead of text",
    )

    analyze_cmd = commands.add_parser(
        "analyze",
        help="attribute response times, bandwidth, residency, fairness",
    )
    analyze_cmd.add_argument("trace", help="path to a JSONL trace file")
    analyze_cmd.add_argument(
        "--disk-sizes", default=None, metavar="N,N,...",
        help="comma-separated disk sizes for per-disk attribution "
             "(e.g. 300,300,400)",
    )
    analyze_cmd.add_argument(
        "--top", type=int, default=5,
        help="rows per ranked table (default 5)",
    )
    analyze_cmd.add_argument(
        "--json", action="store_true",
        help="emit the analysis as JSON instead of text",
    )

    regress_cmd = commands.add_parser(
        "regress",
        help="gate fresh BENCH_*.json documents against recorded history",
    )
    regress_cmd.add_argument(
        "benchmarks", nargs="+", metavar="BENCH.json",
        help="fresh benchmark documents to compare",
    )
    regress_cmd.add_argument(
        "--history", default=DEFAULT_HISTORY,
        help=f"benchmark history JSONL (default {DEFAULT_HISTORY})",
    )
    regress_cmd.add_argument(
        "--record", action="store_true",
        help="append entries that pass the gate to the history",
    )
    regress_cmd.add_argument(
        "--sigma", type=float, default=DEFAULT_SIGMA,
        help=f"noise threshold in baseline stddevs (default {DEFAULT_SIGMA})",
    )
    regress_cmd.add_argument(
        "--rel-floor", type=float, default=DEFAULT_REL_FLOOR,
        help="minimum relative change to flag, as a fraction of the "
             f"baseline mean (default {DEFAULT_REL_FLOOR})",
    )
    regress_cmd.add_argument(
        "--format", choices=("text", "md", "json"), default="text",
        help="report format (default text)",
    )
    return parser


def _load_records(path: str) -> Optional[List[dict]]:
    """Trace records from ``path``, or None after printing an error."""
    try:
        return list(read_jsonl(path))
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
    except ConfigurationError as error:  # names path:line
        print(str(error), file=sys.stderr)
    return None


def _command_summary(args) -> int:
    try:
        manifest = _load_manifest(args.trace)
    except ConfigurationError as error:  # names the torn manifest
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    if manifest is not None:
        if args.json:
            print(json.dumps(manifest, indent=2, sort_keys=True))
        else:
            _print_manifest(manifest)
        return EXIT_OK
    records = _load_records(args.trace)
    if records is None:
        return EXIT_USAGE
    summary = summarise(records, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        _print_summary(summary)
    return EXIT_OK


def _parse_disk_sizes(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    try:
        sizes = [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"invalid --disk-sizes value: {text!r}")
    if not sizes or any(size <= 0 for size in sizes):
        raise ValueError(f"invalid --disk-sizes value: {text!r}")
    return sizes


def _command_analyze(args) -> int:
    try:
        disk_sizes = _parse_disk_sizes(args.disk_sizes)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    records = _load_records(args.trace)
    if records is None:
        return EXIT_USAGE
    document = analyze(records, disk_sizes=disk_sizes, top=args.top)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_analysis(document))
    return EXIT_OK


def _command_regress(args) -> int:
    try:
        report, _ = run_gate(
            args.benchmarks, history_path=args.history, record=args.record,
            sigma=args.sigma, rel_floor=args.rel_floor,
        )
    except OSError as error:
        print(f"cannot read benchmark document: {error}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as error:
        print(f"invalid benchmark document: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:  # names the offending file
        print(f"regress: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "md":
        print(render_markdown(report))
    else:
        print(render_text(report))
    return EXIT_FAILURE if report["status"] == "regression" else EXIT_OK


_COMMANDS = {
    "summary": _command_summary,
    "analyze": _command_analyze,
    "regress": _command_regress,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract.
        return int(exc.code or 0)
    return _COMMANDS[args.command](args)
