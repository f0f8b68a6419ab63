"""The trace report: one document from a JSONL trace.

``python -m repro.obs summary TRACE`` prints :func:`analyze`'s document
(:func:`render_analysis`, or the document itself with ``--json``).
Each section reads one record family in one pass and appears only when
its records do:

* **overview** — record totals by kind and the simulated time span;
* **broadcast** — the ``channel.deliver`` records split into runs by
  :func:`delivery_runs`: slot accounting (delivered slots versus the
  runs' spans), the pages dominating the observed bandwidth, and the
  §2.1 per-page gap check;
* **responses** — the ``client.*`` records: hit/miss totals, wait
  statistics and histogram, waits by disk (physical page ids mapped
  onto disks via the cumulative disk sizes, the paper's
  access-location view recovered from a trace alone), and per-client
  latency attribution with Jain's fairness index over per-client mean
  waits, reusing the mergeable
  :class:`~repro.population.aggregate.FairnessAccumulator` the
  population rollups use;
* **cache** — admission/eviction totals, cache occupancy over time
  (time-weighted mean and peak) and the longest-resident pages, from
  the ``cache.*`` records (walked by :func:`cache_residency`).

:func:`analyze` takes the plain record dicts of
:func:`repro.obs.trace.read_jsonl` and returns one schema-tagged,
JSON-ready document.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.sim.stats import Histogram, RunningStats

#: Schema tag of the report document.
ANALYZE_SCHEMA = "repro.obs.analyze/2"

#: Gap variance below this counts as "fixed" (§2.1); trace timestamps
#: are sums of unit slots, so true fixed gaps come out exactly equal.
FIXED_GAP_TOLERANCE = 1e-9

#: Bins of the responses section's wait histogram.
WAIT_BINS = 8


def _stats_block(stats: RunningStats) -> Dict:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "stddev": stats.stddev,
        "max": stats.maximum if stats.count else 0.0,
    }


def _overview(records: List[dict]) -> Dict:
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


def delivery_runs(records: List[dict]) -> List[List[dict]]:
    """The ``channel.deliver`` records split into runs, in start order.

    Deliveries are keyed by the record's ``channel`` field (a
    multi-channel program's rows deliver in parallel).  Within one
    channel's stream a timestamp earlier than its previous delivery
    starts a new run: the runs of a traced sweep each restart their
    clock at zero.  Within a run the timestamps never decrease.
    """
    current: Dict[Optional[int], List[dict]] = {}
    runs: List[List[dict]] = []
    for record in records:
        if record["kind"] != "channel.deliver":
            continue
        channel = record.get("channel")
        run = current.get(channel)
        if run is None or record["t"] < run[-1]["t"]:
            run = current[channel] = []
            runs.append(run)
        run.append(record)
    return runs


def _broadcast(runs: List[List[dict]], waited: Set[Tuple[float, int]],
               top: int) -> Optional[Dict]:
    """Slot accounting and the §2.1 gap check over the delivery runs.

    Each delivery occupies one broadcast unit, so over the observed
    spans ``utilization = delivered / span`` — 1.0 when every slot
    carried an observed page (``observe_every_slot`` traces of an
    unpadded program), lower when slots were padding or simply not
    demanded.  The span sums each run's span, so a trace of several
    runs reads like one of them.

    Gaps are taken within a run: the gap across a restarted clock is no
    gap of the program.  They count only in a run holding a delivery
    whose instant and page match no ``client.wait`` record (``waited``
    holds their ``(t, physical)`` pairs).  A demand-driven channel
    delivers only the broadcasts a client waited for, so its observed
    gaps are multiples of the program's; a run that observes every
    slot (``observe_every_slot``, ``trace_schedule``) delivers pages
    nobody waited for.  ``fixed_interarrival`` is ``None`` when no run
    was checked.
    """
    if not runs:
        return None
    deliveries: Dict[int, int] = {}
    gaps: Dict[int, RunningStats] = defaultdict(RunningStats)
    span = 0.0
    checked = 0
    for run in runs:
        # Slots, inclusive of the run's first.
        span += run[-1]["t"] - run[0]["t"] + 1.0
        check = any((record["t"], int(record["page"])) not in waited
                    for record in run)
        checked += check
        last: Dict[int, float] = {}
        for record in run:
            page, now = int(record["page"]), record["t"]
            deliveries[page] = deliveries.get(page, 0) + 1
            if not check:
                continue
            if page in last:
                gaps[page].add(now - last[page])
            last[page] = now
    delivered = sum(deliveries.values())
    busiest = sorted(deliveries.items(), key=lambda item: (-item[1], item[0]))
    max_variance = max(
        (stats.variance for stats in gaps.values()), default=0.0
    )
    worst = sorted(
        gaps.items(), key=lambda item: (-item[1].variance, item[0])
    )[:top]
    return {
        "runs": len(runs),
        "runs_checked": checked,
        "delivered_slots": delivered,
        "observed_span": span,
        "utilization": delivered / span if span > 0 else 0.0,
        "pages_observed": len(deliveries),
        "top_pages": [
            {
                "page": page,
                "deliveries": count,
                "bandwidth_share": count / delivered,
            }
            for page, count in busiest[:top]
        ],
        "pages_with_gaps": len(gaps),
        "max_gap_variance": max_variance,
        "fixed_interarrival": (
            max_variance <= FIXED_GAP_TOLERANCE if checked else None
        ),
        "gaps": [
            {
                "page": page,
                "arrivals": deliveries[page],
                "mean_gap": stats.mean,
                "gap_variance": stats.variance,
            }
            for page, stats in worst
        ],
    }


def _responses(
    records: List[dict],
    disk_sizes: Optional[Sequence[int]],
    top: int,
) -> Tuple[Optional[Dict], Set[Tuple[float, int]]]:
    """The responses section and the deliveries the clients waited for.

    ``disk_sizes`` are the layout's page counts per disk; physical page
    ids below ``sum(disk_sizes[:k+1])`` belong to disk ``k`` (the same
    cumulative convention as :class:`~repro.core.disks.DiskLayout`).
    Without sizes the section has no ``by_disk`` block.

    Records from the fast engine carry no ``client`` field (it runs one
    implicit client); process-engine clients are named.  Fairness is
    Jain's index over per-client mean waits — 1.0 when every client
    waits the same on average.  ``retunes`` counts a client's
    ``client.retune`` records: its channel switches on a multi-channel
    program, 0 on one channel.
    """
    # Imported here, not at module top: repro.population imports the
    # execution layer, which imports repro.obs — a cycle at load time.
    from repro.population.aggregate import FairnessAccumulator

    boundaries = list(accumulate(int(size) for size in disk_sizes or ()))
    counts: Dict[str, Counter] = defaultdict(Counter)
    per_client: Dict[str, RunningStats] = defaultdict(RunningStats)
    per_disk: Dict[str, RunningStats] = defaultdict(RunningStats)
    overall = RunningStats()
    waits: List[float] = []
    waited: Set[Tuple[float, int]] = set()
    for record in records:
        kind = record["kind"]
        if not kind.startswith("client."):
            continue
        client = str(record.get("client", "client"))
        counts[client][kind.split(".", 1)[1]] += 1
        if kind != "client.wait":
            continue
        wait, physical = float(record["wait"]), int(record["physical"])
        waits.append(wait)
        overall.add(wait)
        waited.add((record["t"], physical))
        per_client[client].add(wait)
        if boundaries:
            disk = bisect_right(boundaries, physical)
            # Past the last boundary: beyond the declared layout.
            per_disk[f"disk{disk + 1}" if disk < len(boundaries)
                     else "beyond"].add(wait)
    if not counts:
        return None, waited

    fairness = FairnessAccumulator()
    rows = []
    for client in sorted(counts):
        tally = counts[client]
        stats = per_client.get(client, RunningStats())
        fairness.add(stats.mean)
        lookups = tally["hit"] + tally["miss"]
        rows.append({
            "client": client,
            "requests": tally["request"],
            "hits": tally["hit"],
            "misses": tally["miss"],
            "retunes": tally["retune"],
            "hit_rate": tally["hit"] / lookups if lookups else 0.0,
            "wait": _stats_block(stats),
            "total_wait": stats.mean * stats.count,
        })
    rows.sort(key=lambda row: (-row["total_wait"], row["client"]))
    hits = sum(tally["hit"] for tally in counts.values())
    misses = sum(tally["miss"] for tally in counts.values())
    section: Dict = {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        "waits": _stats_block(overall),
        "clients": len(rows),
        "fairness": fairness.jain,
        "slowest": rows[:top],
    }
    if overall.count and overall.maximum > 0:
        histogram = Histogram(0.0, overall.maximum, WAIT_BINS)
        for wait in waits:
            histogram.add(wait)
        section["wait_histogram"] = [
            {"lo": lo, "hi": hi, "count": count}
            for lo, hi, count in histogram.nonempty()
        ] + (
            [{"lo": histogram.high, "hi": None, "count": histogram.overflow}]
            if histogram.overflow
            else []
        )
    if boundaries:
        section["by_disk"] = {
            label: {**_stats_block(stats), "share": stats.count / overall.count}
            for label, stats in sorted(per_disk.items())
        }
    return section, waited


#: The ``cache.*`` record kinds that change residency.
_RESIDENCY_KINDS = ("cache.admit", "cache.evict", "cache.discard")


class _CacheStream:
    """One client's cache as its records replay it: resident page ->
    entry time, the latest record time (``seen``), and the occupancy
    held since the latest change (``changed``)."""

    __slots__ = ("resident", "seen", "changed", "occupancy")

    def __init__(self, now: float):
        self.resident: Dict[int, float] = {}
        self.seen = self.changed = now
        self.occupancy = 0.0


def cache_residency(records: List[dict], top: int = 5) -> Optional[Dict]:
    """The one walk over the ``cache.*`` records: the cache section.

    Residency is keyed by the record's ``client`` label and the page:
    each client owns a private cache, and a columnar fleet interleaves
    its clients' records.  Within one client's stream a timestamp
    earlier than its previous cache record starts a new run (a sweep's
    plans restart their clocks); every page still resident leaves at
    the previous record's time, and the next run starts empty.  An
    admission's named victim leaves at the admission instant, so the
    occupancy peak never transiently reads capacity + 1.

    Returns the record counts, the time-weighted occupancy (total area
    over the total span of every run, and the peak over every run) and
    the ``top`` longest residencies, whose rows name the client for
    labelled records; ``None`` without cache records.
    """
    counts = {"events": 0, "admissions": 0, "evictions": 0,
              "rejections": 0, "discards": 0}
    streams: Dict[str, _CacheStream] = {}
    resident_for: Dict[Tuple[str, int], float] = {}
    area = span = peak = 0.0
    stream = None

    def leave(client: str, cache: _CacheStream, page: int,
              now: float) -> None:
        entered = cache.resident.pop(page, None)
        if entered is not None:
            key = (client, page)
            resident_for[key] = resident_for.get(key, 0.0) + (now - entered)

    def close(client: str, cache: _CacheStream) -> None:
        """End the stream's run at its last record: area and residency."""
        nonlocal area, span
        area += cache.occupancy * (cache.seen - cache.changed)
        span += cache.seen - cache.changed
        for page in list(cache.resident):
            leave(client, cache, page, cache.seen)

    for record in records:
        kind = record["kind"]
        if kind not in _RESIDENCY_KINDS:
            continue
        counts["events"] += 1
        now = record["t"]
        client = str(record.get("client", ""))
        stream = streams.get(client)
        if stream is None:
            stream = streams[client] = _CacheStream(now)
        elif now < stream.seen:
            close(client, stream)
            stream = streams[client] = _CacheStream(now)
        stream.seen = now
        page = int(record["page"])
        if kind == "cache.admit":
            counts["admissions"] += 1
            victim = record.get("victim")
            if victim == record["page"]:
                counts["rejections"] += 1
                continue  # rejected, never resident
            if victim is not None:
                # The paired ``cache.evict`` record then finds it gone.
                leave(client, stream, int(victim), now)
            stream.resident[page] = now
        else:
            counts["evictions" if kind == "cache.evict" else "discards"] += 1
            leave(client, stream, page, now)
        area += stream.occupancy * (now - stream.changed)
        span += now - stream.changed
        stream.changed = now
        stream.occupancy = float(len(stream.resident))
        peak = max(peak, stream.occupancy)
    if stream is None:
        return None
    for client, cache in streams.items():
        close(client, cache)
    longest = sorted(
        resident_for.items(), key=lambda item: (-item[1], item[0])
    )[:top]
    return {
        **counts,
        # Zero elapsed time: the occupancy the last record left.
        "occupancy_mean": area / span if span > 0 else stream.occupancy,
        "occupancy_max": peak,
        "longest_resident": [
            {"page": page, "resident_time": resident_time,
             **({"client": client} if client else {})}
            for (client, page), resident_time in longest
        ],
    }


def analyze(
    records: List[dict],
    *,
    disk_sizes: Optional[Sequence[int]] = None,
    top: int = 5,
) -> Dict:
    """The report document for one trace.

    One pass per record family: :func:`delivery_runs` once, the
    ``client.*`` records once (whose waits also tell the broadcast
    section which deliveries a client waited for) and the ``cache.*``
    records once.  ``top`` bounds every ranked table.
    """
    responses, waited = _responses(records, disk_sizes, top)
    document: Dict = {"schema": ANALYZE_SCHEMA,
                      "overview": _overview(records)}
    for name, section in (
        ("broadcast", _broadcast(delivery_runs(records), waited, top)),
        ("responses", responses),
        ("cache", cache_residency(records, top)),
    ):
        if section is not None:
            document[name] = section
    return document


def render_analysis(document: Dict) -> str:
    """Human-readable rendering of an :func:`analyze` document."""
    return "\n".join(_report_lines(document))


def _report_lines(document: Dict) -> Iterator[str]:
    info = document["overview"]
    lo, hi = info["time_span"]
    yield f"records      : {info['records']}"
    yield f"time span    : [{lo:.1f}, {hi:.1f}] bu"
    for kind in sorted(info["kinds"]):
        yield f"  {kind:<16} {info['kinds'][kind]}"

    broadcast = document.get("broadcast")
    if broadcast:
        verdict = {
            True: "yes", False: "NO",
            None: "not checked (every delivery met a waiting client)",
        }[broadcast["fixed_interarrival"]]
        yield "\nbroadcast inter-arrival (§2.1 fixed-gap check)"
        yield (f"  runs checked     : {broadcast['runs_checked']} of "
               f"{broadcast['runs']}")
        yield f"  pages observed   : {broadcast['pages_observed']}"
        if broadcast["runs_checked"]:
            yield f"  max gap variance : {broadcast['max_gap_variance']:.3g}"
        yield f"  fixed gaps       : {verdict}"
        for row in broadcast["gaps"]:
            yield (f"    page {row['page']:<6} arrivals={row['arrivals']:<5} "
                   f"mean gap={row['mean_gap']:.2f} "
                   f"variance={row['gap_variance']:.3g}")
        yield "broadcast slot utilization"
        yield (f"  delivered {broadcast['delivered_slots']} slots over "
               f"{broadcast['observed_span']:.0f} bu "
               f"({broadcast['utilization']:.1%} of observed span)")
        for row in broadcast["top_pages"]:
            yield (f"    page {row['page']:<6} {row['deliveries']:>5} "
                   f"deliveries  ({row['bandwidth_share']:.1%} of bandwidth)")

    responses = document.get("responses")
    if responses:
        waits = responses["waits"]
        yield "\nresponse breakdown"
        yield (f"  hits / misses : {responses['hits']} / "
               f"{responses['misses']}  (hit rate {responses['hit_rate']:.1%})")
        yield (f"  waits         : n={waits['count']} mean={waits['mean']:.2f}"
               f" stddev={waits['stddev']:.2f} max={waits['max']:.2f}")
        for bucket in responses.get("wait_histogram", []):
            hi_edge = bucket["hi"]
            label = (
                f"[{bucket['lo']:.1f}, {hi_edge:.1f})"
                if hi_edge is not None
                else f">= {bucket['lo']:.1f}"
            )
            yield f"    {label:<20} {bucket['count']}"
        if "by_disk" in responses:
            yield "response time by disk"
        for label, block in responses.get("by_disk", {}).items():
            yield (f"  {label:<8} waits={block['count']:<6} "
                   f"share={block['share']:.1%}  "
                   f"mean={block['mean']:.2f} bu  max={block['max']:.1f}")
        yield "client latency attribution"
        yield (f"  {responses['clients']} client(s), Jain fairness "
               f"{responses['fairness']:.3f}")
        for row in responses["slowest"]:
            yield (f"    {row['client']:<14} requests={row['requests']:<6} "
                   f"hit rate={row['hit_rate']:.1%}  "
                   f"mean wait={row['wait']['mean']:.2f} bu  "
                   f"total={row['total_wait']:.0f} bu")

    cache = document.get("cache")
    if cache:
        yield "\ncache residency"
        yield (f"  admissions : {cache['admissions']} "
               f"(rejections {cache['rejections']})")
        yield (f"  evictions  : {cache['evictions']}  "
               f"discards : {cache['discards']}")
        yield (f"  occupancy mean={cache['occupancy_mean']:.1f} "
               f"max={cache['occupancy_max']:.0f} "
               f"({cache['events']} cache events)")
        if cache["longest_resident"]:
            yield "  longest residency:"
        for row in cache["longest_resident"]:
            owner = f"{row['client']} " if "client" in row else ""
            yield (f"    {owner}page {row['page']:<6} resident "
                   f"{row['resident_time']:.1f} bu")
    if not (broadcast or responses or cache):
        yield "\ntrace carries no analyzable records"
