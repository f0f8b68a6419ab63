"""Per-layer spans for the traced run, installed from outside the program.

Each layer is a set of public entry points, named by the module that
owns them.  :meth:`LayerTimer.install` replaces every entry point, at
every name a caller resolves it by (``repro.exec.run.generate_trace``,
``repro.batch.fleet.build_columnar_engine``, a class attribute for a
method), with a wrapper that records a span: the wall time from entry
to exit, minus the spans of the layer calls made inside it (its *self*
time).  A layer re-entering itself (``generate_trace`` calling
``sample``, ``next_arrival`` calling ``fixed_gap``) stays one span.
Spans are aggregated in memory; :meth:`LayerTimer.uninstall` puts every
original object back.

A wrapper costs more than a scalar cache lookup does, and the ``paper``
workload makes about 14.6M such calls, so :meth:`LayerTimer.calibrated`
times a wrapped no-op first and the timer subtracts that cost per call:
the part inside a span from the layer's own self time, the part outside
it from its caller's.  The subtracted total is ``trace.wrapper.s``;
what remains of the traced wall time after it and every layer's self
time is ``unattributed.s`` (code outside every layer, such as the
figure builders and plan construction, plus calibration error), so the
three sum to the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _arg(args, kwargs, index: int, name: str):
    """A call's argument by position, else by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _in_fleet(timer: "LayerTimer") -> bool:
    return any(frame[2] == "fleet" for frame in timer._stack)


def _fast_requests(timer, args, kwargs, result):
    timer.counts["engine.fast.requests"] += len(_arg(args, kwargs, 1, "trace"))


def _client_steps(timer, args, kwargs, result):
    timer.counts["engine.batch.client_steps"] += int(
        _arg(args, kwargs, 1, "pages").size
    )


def _columnar_group(timer, args, kwargs, result):
    if _in_fleet(timer):
        timer.counts["fleet.columnar_groups"] += 1


def _kernel_group(timer, args, kwargs, result):
    if _in_fleet(timer):
        timer.counts["fleet.kernel_groups"] += 1


def _scalar_client(timer, args, kwargs, result):
    if _in_fleet(timer):
        timer.counts["fleet.scalar_clients"] += 1


def _batched_lookups(timer, args, kwargs, result):
    timer.counts["cache.batched.lookups"] += len(result)
    timer.counts["cache.batched.hits"] += int(result.sum())


def _batched_admits(timer, args, kwargs, result):
    timer.counts["cache.batched.admits"] += int(
        _arg(args, kwargs, 3, "mask").sum()
    )


def _trace_requests(timer, args, kwargs, result):
    timer.counts["workload.trace.requests"] += int(
        _arg(args, kwargs, 1, "num_requests")
    )


def _sampled_requests(timer, args, kwargs, result):
    timer.counts["workload.trace.requests"] += int(
        _arg(args, kwargs, 2, "size")
    )


#: ``(span key, module, attribute, observer)`` for every wrapped entry
#: point.  A ``None`` key counts calls without recording a span.
ENTRY_POINTS: Tuple[Tuple[Optional[str], str, str, Optional[Callable]], ...] = (
    ("engine.fast", "repro.experiments.engine", "FastEngine.run_trace",
     _fast_requests),
    ("engine.batch", "repro.batch.engine", "ColumnarEngine.run",
     _client_steps),
    ("engine.batch", "repro.batch.engine", "build_columnar_engine",
     _columnar_group),
    ("cache.lookup", "repro.cache.lru", "LRUPolicy.lookup", None),
    ("cache.lookup", "repro.cache.p", "PPolicy.lookup", None),
    ("cache.lookup", "repro.cache.lix", "LIXPolicy.lookup", None),
    ("cache.admit", "repro.cache.lru", "LRUPolicy.admit", None),
    ("cache.admit", "repro.cache.p", "PPolicy.admit", None),
    ("cache.admit", "repro.cache.lix", "LIXPolicy.admit", None),
    ("cache.batched.lookup", "repro.cache.batched", "BatchedPolicy.lookup",
     _batched_lookups),
    ("cache.batched.lookup", "repro.cache.batched", "BatchedLRU.lookup",
     _batched_lookups),
    ("cache.batched.lookup", "repro.cache.batched", "BatchedLIX.lookup",
     _batched_lookups),
    ("cache.batched.admit", "repro.cache.batched", "BatchedLRU.admit",
     _batched_admits),
    ("cache.batched.admit", "repro.cache.batched", "BatchedP.admit",
     _batched_admits),
    ("cache.batched.admit", "repro.cache.batched", "BatchedLIX.admit",
     _batched_admits),
    ("workload.trace", "repro.workload.trace", "generate_trace",
     _trace_requests),
    ("workload.trace", "repro.workload.distributions",
     "AccessDistribution.sample", _sampled_requests),
    ("workload.trace", "repro.workload.drift",
     "DriftingZipfDistribution.generate_trace", _trace_requests),
    ("workload.mapping", "repro.workload.mapping",
     "LogicalPhysicalMapping.__init__", None),
    ("workload.mapping", "repro.experiments.config",
     "ExperimentConfig.build_mapping", None),
    ("core.timing", "repro.core.schedule", "BroadcastSchedule.next_arrival",
     None),
    ("core.timing", "repro.core.schedule", "BroadcastSchedule.fixed_gap",
     None),
    ("core.timing", "repro.core.schedule",
     "BroadcastSchedule.next_arrival_batch", None),
    ("core.timing", "repro.core.schedule", "BroadcastProgram.next_arrival",
     None),
    ("core.timing", "repro.core.schedule", "BroadcastProgram.fixed_gap",
     None),
    ("core.timing", "repro.core.schedule",
     "BroadcastProgram.next_arrival_batch", None),
    ("core.build", "repro.experiments.config", "ExperimentConfig.build_layout",
     None),
    ("core.build", "repro.experiments.config",
     "ExperimentConfig.build_schedule", None),
    ("core.channels", "repro.core.channels", "build_program", None),
    ("exec", "repro.exec.run", "execute_plan", _scalar_client),
    ("fleet", "repro.batch.fleet", "run_fleet", None),
    (None, "repro.batch.rng", "group_generator", _kernel_group),
    ("aggregate", "repro.population.aggregate",
     "PopulationAggregate.add_result", None),
    ("aggregate", "repro.population.aggregate",
     "PopulationAggregate.add_mean_block", None),
    ("aggregate", "repro.population.aggregate", "fold_results", None),
    ("output", "repro.obs.manifest", "write_manifest", None),
    ("output", "repro.experiments.reporting", "write_csv", None),
)

#: Reported self-time metrics and the span keys each one sums.  Scalar
#: and columnar forms of one layer share a metric: a workload runs one
#: or the other, so the sum is that workload's layer time, and every
#: metric is measured on every workload.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "engine.s": ("engine.fast", "engine.batch"),
    "cache.lookup.s": ("cache.lookup", "cache.batched.lookup"),
    "cache.admit.s": ("cache.admit", "cache.batched.admit"),
    "workload.trace.s": ("workload.trace",),
    "workload.mapping.s": ("workload.mapping",),
    "core.timing.s": ("core.timing",),
    "core.build.s": ("core.build", "core.channels"),
    "dispatch.s": ("exec", "fleet", "aggregate"),
    "output.s": ("output",),
}

#: Counters the observers fill (some only feed a reported metric).
_COUNTERS = (
    "engine.fast.requests", "engine.batch.client_steps",
    "cache.batched.lookups", "cache.batched.hits", "cache.batched.admits",
    "workload.trace.requests", "fleet.columnar_groups",
    "fleet.kernel_groups", "fleet.scalar_clients",
)


def _resolve(module_name: str, attribute: str):
    """``(owner, name, original)`` for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *classes, name = attribute.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    original = owner.__dict__[name]
    return owner, name, original


def resolve_entry_points() -> List[Tuple[object, str, object]]:
    """The current ``(owner, name, object)`` of every entry point."""
    return [
        _resolve(module_name, attribute)
        for _key, module_name, attribute, _observer in ENTRY_POINTS
    ]


def _repro_modules():
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTimer:
    """Self-time spans and counts per layer, for one traced repetition."""

    def __init__(self, *, inner_cost: float = 0.0, outer_cost: float = 0.0):
        #: span key -> [outer calls, raw self seconds, truthy results]
        self._records: Dict[str, List] = {}
        #: open spans: [child seconds, child outer cost, key]; the root
        #: frame collects top-level spans.
        self._stack: List[List] = [[0.0, 0.0, None]]
        self.counts: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self.inner_cost = inner_cost
        self.outer_cost = outer_cost
        #: id(wrapper) -> (wrapper, original), for every installed wrapper
        self._originals: Dict[int, Tuple[object, object]] = {}
        self._patched: List[Tuple[object, str, object]] = []

    @classmethod
    def calibrated(cls, *, calls: int = 30_000, rounds: int = 9) -> "LayerTimer":
        """A timer that subtracts the measured cost of its own wrapper."""
        inner, outer = _calibrate(calls, rounds)
        return cls(inner_cost=inner, outer_cost=outer)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, function, key: Optional[str], observer):
        timer = self
        if key is None:
            def counted(*args, **kwargs):
                result = function(*args, **kwargs)
                observer(timer, args, kwargs, result)
                return result
            return counted

        record = self._records.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        outer = self.outer_cost
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[2] is key:
                return function(*args, **kwargs)
            frame = [0.0, 0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                parent[0] += span
                parent[1] += outer
                record[0] += 1
                record[1] += span - frame[0] - frame[1]
            if result is True:
                record[2] += 1
            if observer is not None:
                observer(timer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point at every name it is reachable by."""
        for key, module_name, attribute, observer in ENTRY_POINTS:
            owner, name, original = _resolve(module_name, attribute)
            wrapper = self._wrap(original, key, observer)
            self._originals[id(wrapper)] = (wrapper, original)
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))
            if "." in attribute:
                continue
            # A function is also reachable through every module that
            # imported it by name.
            for module in _repro_modules():
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, including any wrapper a
        module imported by name after :meth:`install`."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        for module in _repro_modules():
            for alias, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, alias, entry[1])
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Calibrated self time per span key."""
        return {
            key: raw - self.inner_cost * calls
            for key, (calls, raw, _truthy) in self._records.items()
        }

    def calls(self, key: str) -> int:
        return self._records.get(key, [0])[0]

    def metrics(self, wall: float) -> Dict[str, float]:
        """Every per-layer metric except the traced/untraced ratio."""
        self_s = self.self_seconds()
        metrics: Dict[str, float] = {
            name: sum(self_s.get(key, 0.0) for key in keys)
            for name, keys in SPAN_METRICS.items()
        }
        spans = sum(record[0] for record in self._records.values())
        metrics["trace.wrapper.s"] = (self.inner_cost + self.outer_cost) * spans
        metrics["unattributed.s"] = wall - sum(metrics.values())
        metrics["trace.wall.s"] = wall

        counts = self.counts
        lookups = self.calls("cache.lookup") + counts["cache.batched.lookups"]
        hits = self._records.get("cache.lookup", [0, 0.0, 0])[2]
        hits += counts["cache.batched.hits"]
        metrics.update({
            "engine.fast.requests": counts["engine.fast.requests"],
            "engine.batch.client_steps": counts["engine.batch.client_steps"],
            "cache.lookup.calls": lookups,
            "cache.admit.calls": (
                self.calls("cache.admit") + counts["cache.batched.admits"]
            ),
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.batched.steps": self.calls("cache.batched.lookup"),
            "workload.trace.requests": counts["workload.trace.requests"],
            "workload.mapping.calls": self.calls("workload.mapping"),
            "core.timing.calls": self.calls("core.timing"),
            "core.build.calls": self.calls("core.build"),
            "core.channels.calls": self.calls("core.channels"),
            "exec.plans": self.calls("exec"),
            "fleet.columnar_groups": counts["fleet.columnar_groups"],
            "fleet.kernel_groups": counts["fleet.kernel_groups"],
            "fleet.scalar_clients": counts["fleet.scalar_clients"],
        })
        return metrics


def _calibrate(calls: int, rounds: int) -> Tuple[float, float]:
    """Per-call wrapper cost ``(inside the span, outside it)``, seconds.

    Times the loop alone, a no-op method, and the same method behind a
    wrapper, each called through a bound method hoisted to a local the
    way the engines' hot loops call the caches.  Each loop keeps its
    fastest of ``rounds`` timings (a busy host only ever slows a loop
    down); the differences give the cost a wrapper adds inside its own
    span (beyond the call itself) and outside it, in the caller.
    """

    class Probe:
        def method(self, page, now):
            return True

    timer = LayerTimer()
    Probe.wrapped = timer._wrap(Probe.method, "calibration", None)
    record = timer._records["calibration"]
    probe = Probe()
    bare_call, wrapped_call = probe.method, probe.wrapped
    clock = time.perf_counter
    empty = bare = total = spans = float("inf")
    for _ in range(rounds):
        start = clock()
        for _ in range(calls):
            pass
        empty = min(empty, clock() - start)
        start = clock()
        for _ in range(calls):
            bare_call(1, 2.0)
        bare = min(bare, clock() - start)
        spans_before = record[1]
        start = clock()
        for _ in range(calls):
            wrapped_call(1, 2.0)
        elapsed = clock() - start
        if elapsed < total:
            total, spans = elapsed, record[1] - spans_before
    inner = (spans - (bare - empty)) / calls
    return inner, (total - bare) / calls - inner
