"""Run manifests: one JSON document that pins down a run completely.

A manifest answers "what exactly produced this number?": the full
configuration and its hash, the seed, the schedule's structural
properties, the warm-up/measurement split, the headline metrics, wall
time, and (optionally) trace totals, a profile and a monitor verdict.

Manifests are deliberately plain dicts — JSON-ready, diffable,
schema-tagged — rather than classes; the sweep aggregate embeds one
per-run record per configuration, which is the ``BENCH_*.json``-style
trajectory the bench scripts emit.

Nothing here reads the wall clock or a calendar: determinism-sensitive
fields only.  Wall time arrives pre-measured on the result object (via
:mod:`repro.obs.clock`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError
from repro.obs.monitor import MonitorSuite

MANIFEST_SCHEMA = "repro.obs.manifest/1"
SWEEP_SCHEMA = "repro.obs.sweep/1"


#: Config fields serialized only when they differ from their default.
#: Omit-default serialization keeps the hash of every pre-existing
#: configuration unchanged when a new field is introduced, so bench
#: history baselines and sweep-checkpoint fingerprints stay valid.
_OMIT_WHEN_DEFAULT = {"channels": 1, "retune_cost": 1.0}


def _config_dict(config) -> Dict:
    """A plain-dict view of a config (dataclass or mapping)."""
    data = asdict(config) if is_dataclass(config) else dict(config)
    for key, default in _OMIT_WHEN_DEFAULT.items():
        if key in data and data[key] == default:
            del data[key]
    return data


def config_hash(config) -> str:
    """SHA-256 over the canonical JSON form of a configuration.

    Two configs hash equal iff every field (including defaults) matches,
    so the hash is a stable identity for caching and cross-run joins.
    """
    payload = json.dumps(_config_dict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def observer_blocks(tracer, profile) -> Dict:
    """The optional ``trace``/``profile``/``monitors`` manifest blocks.

    A ``tracer`` (a :class:`repro.obs.trace.Tracer`) contributes its
    emission totals; ``profile`` (a :class:`repro.obs.profile.Profiler`)
    and a :class:`repro.obs.monitor.MonitorSuite` among the tracer's
    sinks embed their schema-tagged snapshots — so a run, sweep or
    population manifest carries the phase timings, engine counters, and
    any invariant violations alongside the measurements they describe.
    Each block is left out when its observer is absent.
    """
    blocks: Dict = {}
    if tracer is not None:
        blocks["trace"] = {
            "enabled": tracer.enabled,
            "records_emitted": tracer.emitted,
        }
        for sink in tracer.sinks:
            if isinstance(sink, MonitorSuite):
                blocks["monitors"] = sink.snapshot()
    if profile is not None:
        blocks["profile"] = profile.snapshot()
    return blocks


def build_manifest(result, *, tracer=None, profile=None) -> Dict:
    """The manifest dict for one :class:`ExperimentResult`-shaped object.

    ``tracer`` and ``profile`` add their blocks (see
    :func:`observer_blocks`) when provided.
    """
    config = result.config
    stats = result.response_stats
    manifest: Dict = {
        "schema": MANIFEST_SCHEMA,
        "label": config.describe(),
        "config": _config_dict(config),
        "config_hash": config_hash(config),
        "seed": config.seed,
        "schedule_period": result.schedule_period,
        "schedule_utilisation": result.schedule_utilisation,
        "warmup_requests": result.warmup_requests,
        "measured_requests": result.measured_requests,
        "mean_response_time": result.mean_response_time,
        "hit_rate": result.hit_rate,
        "response": {
            "count": stats.count,
            "mean": stats.mean,
            "stddev": stats.stddev,
            "min": stats.minimum,
            "max": stats.maximum,
        },
        "access_locations": dict(result.access_locations),
        "wall_seconds": result.wall_seconds,
    }
    # Multi-channel runs carry their tuner and per-channel figures;
    # single-channel manifests keep their exact 1.1 shape.
    channel_utilisation = getattr(result, "channel_utilisation", None)
    if channel_utilisation is not None:
        manifest["retunes"] = result.retunes
        manifest["channel_utilisation"] = list(channel_utilisation)
    manifest.update(observer_blocks(tracer, profile))
    return manifest


def write_manifest(manifest: Dict, path: str) -> None:
    """Serialise one manifest to ``path`` as indented, sorted JSON."""
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def build_sweep_manifest(results: Iterable, *, tracer=None,
                         name: str = "sweep", profile=None) -> Dict:
    """Aggregate per-run manifests into one sweep document.

    The summary block carries the cross-run totals a bench trajectory
    wants in one glance (total wall time, request volume, response-time
    extremes); ``runs`` holds the full per-configuration manifests.
    ``tracer``/``profile`` add their blocks like :func:`build_manifest`.
    """
    runs: List[Dict] = [build_manifest(result) for result in results]
    means = [run["mean_response_time"] for run in runs]
    summary: Dict = {
        "runs": len(runs),
        "total_wall_seconds": sum(run["wall_seconds"] for run in runs),
        "total_measured_requests": sum(
            run["measured_requests"] for run in runs
        ),
        "mean_response_time_min": min(means) if means else 0.0,
        "mean_response_time_max": max(means) if means else 0.0,
    }
    sweep: Dict = {
        "schema": SWEEP_SCHEMA,
        "name": name,
        "summary": summary,
        "runs": runs,
    }
    sweep.update(observer_blocks(tracer, profile))
    return sweep


def read_manifest(path: str) -> Dict:
    """Load a manifest (run or sweep) written by this module.

    A file that is not one JSON document (a manifest cut mid-write)
    raises :class:`ConfigurationError` naming ``path``.
    """
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{path}: torn manifest ({error})"
            ) from None


#: Manifest fields that measure elapsed wall time — the only fields
#: allowed to differ between a serial and a parallel run of one sweep.
#: ``phase_seconds`` is the profiler's per-phase wall-time block.
WALL_CLOCK_FIELDS = frozenset({
    "wall_seconds", "total_wall_seconds", "phase_seconds",
})


def strip_wall_clock(document):
    """A deep copy of a manifest with every wall-clock field removed.

    Comparing ``strip_wall_clock(serial)`` to ``strip_wall_clock(parallel)``
    is the determinism check: ``run_plans`` guarantees everything else is
    byte-identical (see ``docs/ARCHITECTURE.md``).
    """
    if isinstance(document, dict):
        return {
            key: strip_wall_clock(value)
            for key, value in document.items()
            if key not in WALL_CLOCK_FIELDS
        }
    if isinstance(document, list):
        return [strip_wall_clock(item) for item in document]
    return document
