"""Post-hoc trace analytics: from a JSONL trace to attribution tables.

Where ``python -m repro.obs summary`` answers "is this trace healthy?",
``analyze`` answers "*where* does the response time go?":

* :func:`response_by_disk` — per-disk response-time breakdown from the
  ``client.wait`` records (physical page ids mapped onto disks via the
  cumulative disk sizes), reproducing the paper's access-location view
  from a trace alone;
* :func:`slot_utilization` — broadcast accounting from the
  ``channel.deliver`` records: delivered slots versus elapsed slots,
  and the pages dominating the observed bandwidth (runs split by
  :func:`delivery_runs`, which ``summary``'s fixed-gap check shares);
* :func:`residency_timeline` — cache occupancy over time (time-weighted
  mean and peak) plus the longest-resident pages, from the ``cache.*``
  records (walked by :func:`cache_residency`, which ``summary`` shares);
* :func:`client_latency` — per-client latency attribution with Jain's
  fairness index over per-client mean waits, reusing the mergeable
  :class:`~repro.population.aggregate.FairnessAccumulator` the
  population rollups use.

All functions take the plain record dicts of
:func:`repro.obs.trace.read_jsonl` and return JSON-ready sections;
:func:`analyze` bundles the applicable ones into one schema-tagged
document (the ``python -m repro.obs analyze`` payload).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.stats import RunningStats

#: Schema tag of the analyze document.
ANALYZE_SCHEMA = "repro.obs.analyze/1"


def _disk_of(physical: int, boundaries: Sequence[int]) -> int:
    """Disk index of a physical page id under cumulative boundaries."""
    for disk, boundary in enumerate(boundaries):
        if physical < boundary:
            return disk
    return len(boundaries)  # beyond the declared layout


def _stats_block(stats: RunningStats) -> Dict:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "stddev": stats.stddev,
        "max": stats.maximum if stats.count else 0.0,
    }


def response_by_disk(
    records: List[dict],
    disk_sizes: Optional[Sequence[int]] = None,
) -> Optional[Dict]:
    """Per-disk wait statistics from the ``client.wait`` records.

    ``disk_sizes`` are the layout's page counts per disk; physical page
    ids below ``sum(disk_sizes[:k+1])`` belong to disk ``k`` (the same
    cumulative convention as :class:`~repro.core.disks.DiskLayout`).
    Without sizes every wait lands in one ``all`` bucket.
    """
    waits = [r for r in records if r["kind"] == "client.wait"]
    if not waits:
        return None
    boundaries: List[int] = []
    if disk_sizes:
        running = 0
        for size in disk_sizes:
            running += int(size)
            boundaries.append(running)
    per_disk: Dict[str, RunningStats] = {}
    for record in waits:
        if boundaries:
            disk = _disk_of(int(record["physical"]), boundaries)
            label = (
                f"disk{disk + 1}" if disk < len(boundaries) else "beyond"
            )
        else:
            label = "all"
        stats = per_disk.get(label)
        if stats is None:
            stats = per_disk[label] = RunningStats()
        stats.add(float(record["wait"]))
    total = sum(stats.count for stats in per_disk.values())
    return {
        "waits": total,
        "disks": {
            label: {
                **_stats_block(stats),
                "share": stats.count / total,
            }
            for label, stats in sorted(per_disk.items())
        },
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


def slot_utilization(records: List[dict], top: int = 5) -> Optional[Dict]:
    """Broadcast slot accounting from the ``channel.deliver`` records.

    Each delivery occupies one broadcast unit, so over the observed
    spans ``utilization = delivered / span`` — 1.0 when every slot
    carried an observed page (``observe_every_slot`` traces of an
    unpadded program), lower when slots were padding or simply not
    demanded.  The span sums each run's span (:func:`delivery_runs`),
    so a trace of several runs reads like one of them.
    """
    runs = delivery_runs(records)
    if not runs:
        return None
    deliveries = [r for r in records if r["kind"] == "channel.deliver"]
    # Slots, inclusive of each run's first.
    span = sum(run[-1]["t"] - run[0]["t"] + 1.0 for run in runs)
    per_page: Dict[int, int] = {}
    for record in deliveries:
        page = int(record["page"])
        per_page[page] = per_page.get(page, 0) + 1
    ranked = sorted(per_page.items(), key=lambda item: (-item[1], item[0]))
    return {
        "delivered_slots": len(deliveries),
        "observed_span": span,
        "utilization": len(deliveries) / span if span > 0 else 0.0,
        "distinct_pages": len(per_page),
        "top_pages": [
            {
                "page": page,
                "deliveries": count,
                "bandwidth_share": count / len(deliveries),
            }
            for page, count in ranked[:top]
        ],
    }


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
    """The one walk over the ``cache.*`` records behind every residency view.

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


def residency_timeline(records: List[dict], top: int = 5) -> Optional[Dict]:
    """Cache occupancy over time from the ``cache.*`` records."""
    walk = cache_residency(records, top)
    return None if walk is None else {
        key: walk[key] for key in
        ("events", "occupancy_mean", "occupancy_max", "longest_resident")
    }


def client_latency(records: List[dict], top: int = 5) -> Optional[Dict]:
    """Per-client latency attribution plus Jain fairness.

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

    counts: Dict[str, Dict[str, int]] = {}
    waits: Dict[str, RunningStats] = {}
    for record in records:
        kind = record["kind"]
        if not kind.startswith("client."):
            continue
        client = str(record.get("client", "client"))
        tally = counts.get(client)
        if tally is None:
            tally = counts[client] = {"request": 0, "hit": 0, "miss": 0,
                                      "wait": 0, "retune": 0}
        tally[kind.split(".", 1)[1]] += 1
        if kind == "client.wait":
            stats = waits.get(client)
            if stats is None:
                stats = waits[client] = RunningStats()
            stats.add(float(record["wait"]))
    if not counts:
        return None
    fairness = FairnessAccumulator()
    rows = []
    for client in sorted(counts):
        tally = counts[client]
        stats = waits.get(client, RunningStats())
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
    return {
        "clients": len(rows),
        "fairness": fairness.jain,
        "slowest": rows[:top],
    }


def analyze(
    records: List[dict],
    *,
    disk_sizes: Optional[Sequence[int]] = None,
    top: int = 5,
) -> Dict:
    """The full analytics document for one trace."""
    document: Dict = {"schema": ANALYZE_SCHEMA}
    for name, section in (
        ("response_by_disk", response_by_disk(records, disk_sizes)),
        ("slot_utilization", slot_utilization(records, top)),
        ("cache_residency", residency_timeline(records, top)),
        ("client_latency", client_latency(records, top)),
    ):
        if section is not None:
            document[name] = section
    return document


def render_analysis(document: Dict) -> str:
    """Human-readable rendering of an :func:`analyze` document."""
    lines: List[str] = []
    by_disk = document.get("response_by_disk")
    if by_disk:
        lines.append("response time by disk")
        for label, block in by_disk["disks"].items():
            lines.append(
                f"  {label:<8} waits={block['count']:<6} "
                f"share={block['share']:.1%}  "
                f"mean={block['mean']:.2f} bu  max={block['max']:.1f}"
            )
    utilization = document.get("slot_utilization")
    if utilization:
        lines.append("broadcast slot utilization")
        lines.append(
            f"  delivered {utilization['delivered_slots']} slots over "
            f"{utilization['observed_span']:.0f} bu "
            f"({utilization['utilization']:.1%} of observed span, "
            f"{utilization['distinct_pages']} distinct pages)"
        )
        for row in utilization["top_pages"]:
            lines.append(
                f"    page {row['page']:<6} {row['deliveries']:>5} "
                f"deliveries  ({row['bandwidth_share']:.1%} of bandwidth)"
            )
    residency = document.get("cache_residency")
    if residency:
        lines.append("cache residency")
        lines.append(
            f"  occupancy mean={residency['occupancy_mean']:.1f} "
            f"max={residency['occupancy_max']:.0f} "
            f"({residency['events']} cache events)"
        )
        for row in residency["longest_resident"]:
            owner = f"{row['client']} " if "client" in row else ""
            lines.append(
                f"    {owner}page {row['page']:<6} resident "
                f"{row['resident_time']:.1f} bu"
            )
    latency = document.get("client_latency")
    if latency:
        lines.append("client latency attribution")
        lines.append(
            f"  {latency['clients']} client(s), Jain fairness "
            f"{latency['fairness']:.3f}"
        )
        for row in latency["slowest"]:
            lines.append(
                f"    {row['client']:<14} requests={row['requests']:<6} "
                f"hit rate={row['hit_rate']:.1%}  "
                f"mean wait={row['wait']['mean']:.2f} bu  "
                f"total={row['total_wait']:.0f} bu"
            )
    if not lines:
        lines.append("trace carries no analyzable records")
    return "\n".join(lines)
