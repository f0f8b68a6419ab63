"""repro.obs — deterministic observability for the simulation stack.

The observatory is five cooperating pieces, all zero-overhead when
disabled:

* :mod:`repro.obs.trace` — a structured trace bus.  Components hold an
  optional tracer and emit typed, simulation-time-keyed records to
  pluggable sinks (ring buffer, JSONL file).  Hook points live in the
  kernel (event dispatch), the broadcast channel (page completions),
  and each engine's request loop (request / hit / miss / retune / wait
  and the cache's lookup / admit / evict).  Failing sinks are
  quarantined — detached after their first error with a single
  warning — so observation can never abort a simulation.
* :mod:`repro.obs.manifest` — machine-readable run manifests (config
  hash, seeds, schedule period, response statistics, access locations)
  for single runs and sweeps: the one machine-readable record of a run.
* :mod:`repro.obs.monitor` — declarative invariant monitors driven by
  the trace bus: fixed inter-arrival periodicity (§2.1), cache
  occupancy bounds, clock monotonicity, hit/miss conservation, and
  schedule-period consistency, in ``record`` or ``strict`` mode.
* :mod:`repro.obs.profile` — a pay-for-use profiler: per-phase wall
  times, engine loop/event counters, and high-water marks.
* :mod:`repro.obs.analyze` and :mod:`repro.obs.regress` — the post-hoc
  trace report (slot accounting and the §2.1 fixed-gap check, the
  response breakdown with per-disk attribution and Jain fairness, cache
  residency) and the benchmark regression gate over
  ``results/bench_history.jsonl``.

All timestamps inside records are *simulation* time.  The only wall
clock in the subsystem is :mod:`repro.obs.clock`, the one allowlisted
RL001 gateway, used solely for wall-time bookkeeping in manifests and
profiles.

``python -m repro.obs`` exposes the post-hoc tooling: ``summary``
(the trace report and manifest pretty-printing) and ``regress`` (the
CI benchmark gate).
"""

from repro.obs.analyze import analyze, render_analysis
from repro.obs.clock import perf_counter
from repro.obs.manifest import (
    build_manifest,
    build_sweep_manifest,
    config_hash,
    write_manifest,
)
from repro.obs.monitor import MonitorContext, MonitorSuite, Violation
from repro.obs.profile import Profiler
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
    "JsonlSink",
    "MemorySink",
    "MonitorContext",
    "MonitorSuite",
    "Profiler",
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
    "render_analysis",
    "run_gate",
    "trace_schedule",
    "write_manifest",
]
