"""repro.obs — deterministic observability for the simulation stack.

The observatory is six cooperating pieces, all zero-overhead when
disabled:

* :mod:`repro.obs.trace` — a structured trace bus.  Components hold an
  optional tracer and emit typed, simulation-time-keyed records to
  pluggable sinks (ring buffer, JSONL file).  Hook points live in the
  kernel (event dispatch), the broadcast channel (page completions),
  the clients (request / hit / miss / wait), and a cache wrapper
  (lookup / admit / evict).  Failing sinks are quarantined — detached
  after their first error with a single warning — so observation can
  never abort a simulation.
* :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  time-weighted stats, snapshotted per run.
* :mod:`repro.obs.manifest` — machine-readable run manifests (config
  hash, seeds, schedule period, metric snapshot) for single runs and
  sweeps.
* :mod:`repro.obs.monitor` — declarative invariant monitors driven by
  the trace bus: fixed inter-arrival periodicity (§2.1), cache
  occupancy bounds, clock monotonicity, hit/miss conservation, and
  schedule-period consistency, in ``record`` or ``strict`` mode.
* :mod:`repro.obs.profile` — a pay-for-use profiler: per-phase wall
  times, engine loop/event counters, and the broadcast-timing tier
  counts (closed-form / bisect).
* :mod:`repro.obs.analyze` and :mod:`repro.obs.regress` — post-hoc
  trace analytics (per-disk response attribution, slot utilization,
  residency, Jain fairness) and the benchmark regression gate over
  ``results/bench_history.jsonl``.

All timestamps inside records are *simulation* time.  The only wall
clock in the subsystem is :mod:`repro.obs.clock`, the one allowlisted
RL001 gateway, used solely for wall-time bookkeeping in manifests and
profiles.

``python -m repro.obs`` exposes the post-hoc tooling: ``summary``
(trace health and manifest pretty-printing), ``analyze`` (attribution
tables), and ``regress`` (the CI benchmark gate).
"""

from repro.obs.analyze import analyze, render_analysis
from repro.obs.clock import perf_counter
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, TimeWeightedGauge
from repro.obs.manifest import (
    build_manifest,
    build_sweep_manifest,
    config_hash,
    write_manifest,
    write_sweep_manifest,
)
from repro.obs.monitor import MonitorContext, MonitorSuite, Violation
from repro.obs.profile import Profiler, record_profile_metrics
from repro.obs.regress import (
    append_history,
    compare,
    extract_entry,
    read_history,
    run_gate,
)
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    TraceRecord,
    Tracer,
    read_jsonl,
    trace_schedule,
)

__all__ = [
    "Counter",
    "Gauge",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MonitorContext",
    "MonitorSuite",
    "Profiler",
    "TimeWeightedGauge",
    "TraceRecord",
    "Tracer",
    "Violation",
    "analyze",
    "append_history",
    "build_manifest",
    "build_sweep_manifest",
    "compare",
    "config_hash",
    "extract_entry",
    "perf_counter",
    "read_history",
    "read_jsonl",
    "record_profile_metrics",
    "render_analysis",
    "run_gate",
    "trace_schedule",
    "write_manifest",
    "write_sweep_manifest",
]
