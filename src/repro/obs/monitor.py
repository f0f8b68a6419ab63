"""Declarative invariant monitors driven by the trace bus.

A :class:`MonitorSuite` is a trace *sink*: attach it to a
:class:`~repro.obs.trace.Tracer` (``Tracer(MonitorSuite())``, or beside
a JSONL or memory sink) and every record of each run the execution
layer brackets on that tracer flows through a set of per-run
:class:`Monitor` instances, each checking one simulation invariant:

==============================  ============================================
monitor                         invariant
==============================  ============================================
:class:`FixedInterarrival...`   §2.1: observed ``channel.deliver`` gaps of a
                                fixed-gap page are exact multiples of its
                                schedule gap (exact equality needs every
                                slot observed; multiples hold for any
                                demand-driven subset)
:class:`CacheOccupancy...`      resident pages never exceed the configured
                                cache capacity
:class:`ClockMonotonicity...`   per-client ``client.*`` times and the global
                                ``sim.event`` / ``channel.deliver`` streams
                                never go backwards
:class:`Conservation...`        per client, ``requests == hits + misses``
                                exactly, and every miss is matched by a wait
                                (the final wait may be truncated)
:class:`SchedulePeriodicity.`   every delivery happens at an integral slot
                                completion carrying exactly the page the
                                schedule says that slot holds
==============================  ============================================

Two modes: ``record`` collects :class:`Violation` objects (serialised
into run/sweep manifests); ``strict`` additionally raises
:class:`~repro.errors.MonitorError` at the end of the violating run.
Violations are raised from ``end_run()`` — never from ``write()`` — so
the tracer's sink-quarantine logic cannot swallow them.

Like every obs component, a suite in a disabled tracer (or none at
all) costs the execution layer one guard branch and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, MonitorError

#: Schema tag of the monitor snapshot embedded in manifests.
MONITOR_SCHEMA = "repro.obs.monitor/1"

#: Violations retained per run; a systematically-broken invariant would
#: otherwise flood the manifest with one record per request.
MAX_VIOLATIONS_PER_RUN = 100

#: Slack for float comparisons on trace timestamps.  Completion instants
#: and gaps are sums of unit slots, so honest values are exact; the
#: tolerance only forgives representation noise.
TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, serialisable into manifests."""

    monitor: str
    invariant: str
    time: float
    message: str
    run: str = ""

    def to_dict(self) -> Dict:
        """JSON-ready form (round-tripped by :meth:`from_dict`)."""
        return {
            "monitor": self.monitor,
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "run": self.run,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Violation":
        """Rebuild a violation from its :meth:`to_dict` payload."""
        return cls(
            monitor=str(payload["monitor"]),
            invariant=str(payload["invariant"]),
            time=float(payload["time"]),
            message=str(payload["message"]),
            run=str(payload.get("run", "")),
        )


@dataclass
class MonitorContext:
    """What a run tells its monitors before the first record flows.

    ``schedule`` powers the broadcast-side checks (gap structure, slot
    contents); ``cache_capacity`` powers the occupancy bound.  Either
    may be ``None``, which deactivates the checks that need it.
    """

    label: str = ""
    schedule: Optional[object] = None
    cache_capacity: Optional[int] = None


class Monitor:
    """Base class: observe records for one run, then report violations."""

    name = "monitor"

    def __init__(self) -> None:
        self.violations: List[Violation] = []

    def begin(self, context: MonitorContext) -> None:
        """Receive the run context before any record is observed."""
        self.context = context

    def observe(self, record) -> None:
        """Inspect one :class:`~repro.obs.trace.TraceRecord`."""

    def finish(self) -> List[Violation]:
        """End-of-run checks; returns everything collected."""
        return self.violations

    def _violate(self, invariant: str, time: float, message: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS_PER_RUN:
            self.violations.append(
                Violation(self.name, invariant, time, message)
            )


class FixedInterarrivalMonitor(Monitor):
    """§2.1: fixed-gap pages arrive on their arithmetic progression.

    Demand-driven traces observe a *subset* of a page's deliveries, so
    the check is that every observed gap is an exact multiple of the
    schedule's fixed gap — which holds for any subset iff the full
    stream is the fixed progression.  Pages the schedule marks irregular
    (``fixed_gap() is None``) are skipped.
    """

    name = "fixed_interarrival"

    def __init__(self) -> None:
        super().__init__()
        self._last_seen: Dict[int, float] = {}
        self._gap_of: Dict[int, Optional[int]] = {}

    def observe(self, record) -> None:
        if record.kind != "channel.deliver":
            return
        schedule = self.context.schedule
        if schedule is None:
            return
        page = record.fields["page"]
        now = record.time
        previous = self._last_seen.get(page)
        self._last_seen[page] = now
        if previous is None:
            return
        gap = self._gap_of.get(page, -1)
        if gap == -1:
            entry = schedule.fixed_gap(page) if page in schedule else None
            gap = None if entry is None else entry[1]
            self._gap_of[page] = gap
        if gap is None:
            return
        observed = now - previous
        multiple = round(observed / gap)
        if multiple < 1 or abs(observed - multiple * gap) > TIME_TOLERANCE:
            self._violate(
                "fixed_gap_multiple", now,
                f"page {page}: observed gap {observed!r} is not a "
                f"multiple of the schedule gap {gap}",
            )


class CacheOccupancyMonitor(Monitor):
    """Resident pages never exceed the configured capacity.

    Residency is tracked per client (``client`` record field): a
    columnar batch run interleaves every client's ``cache.*`` records
    in one monitored scope, and each client owns a private cache of the
    configured capacity.  Unlabelled records share the ``""`` key, so a
    single-client run behaves exactly as before.
    """

    name = "cache_occupancy"

    def __init__(self) -> None:
        super().__init__()
        self._resident: Dict[str, Set[int]] = {}

    def observe(self, record) -> None:
        capacity = self.context.cache_capacity
        if capacity is None:
            return
        kind = record.kind
        if kind == "cache.admit":
            page = record.fields["page"]
            victim = record.fields.get("victim")
            if victim == page:
                return  # the policy declined to cache the page
            client = record.fields.get("client", "")
            resident = self._resident.get(client)
            if resident is None:
                resident = self._resident[client] = set()
            if victim is not None:
                resident.discard(victim)
            resident.add(page)
            if len(resident) > capacity:
                label = f" for {client}" if client else ""
                self._violate(
                    "occupancy_bound", record.time,
                    f"{len(resident)} resident pages exceed "
                    f"capacity {capacity} after admitting {page}{label}",
                )
        elif kind == "cache.evict":
            client = record.fields.get("client", "")
            resident = self._resident.get(client)
            if resident is not None:
                resident.discard(record.fields["page"])


class ClockMonotonicityMonitor(Monitor):
    """No observation stream ever moves backwards in simulation time.

    ``client.*`` records are checked per client (concurrent clients
    interleave legitimately); ``sim.event``, ``channel.deliver``, and
    ``cache.*`` share the simulator's global clock and are checked as
    one stream each.  Any record carrying a ``client`` label splits its
    stream per client — a columnar batch run interleaves per-client
    ``cache.*`` records whose clocks advance independently.
    """

    name = "clock_monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last: Dict[Tuple, float] = {}

    def observe(self, record) -> None:
        kind = record.kind
        if kind.startswith("client."):
            key = ("client", record.fields.get("client", ""))
        else:
            key = (kind.split(".", 1)[0], record.fields.get("client", ""))
        previous = self._last.get(key)
        if previous is not None and record.time < previous - TIME_TOLERANCE:
            self._violate(
                "monotonic_clock", record.time,
                f"{kind} at t={record.time!r} precedes the previous "
                f"{'/'.join(map(str, key))} record at t={previous!r}",
            )
        if previous is None or record.time > previous:
            self._last[key] = record.time


class ConservationMonitor(Monitor):
    """Per client: ``requests == hits + misses``, waits match misses, and
    channel retunes never exceed misses (only a miss can retune)."""

    name = "conservation"

    #: ``client.*`` record kinds the monitor tallies; unknown client
    #: kinds are ignored rather than crashing the suite on a new record
    #: type.
    _KINDS = ("request", "hit", "miss", "wait", "retune")

    def __init__(self) -> None:
        super().__init__()
        self._counts: Dict[str, Dict[str, int]] = {}
        self._final_time = 0.0

    def observe(self, record) -> None:
        kind = record.kind
        if not kind.startswith("client."):
            return
        name = kind.split(".", 1)[1]
        if name not in self._KINDS:
            return
        client = record.fields.get("client", "")
        counts = self._counts.get(client)
        if counts is None:
            counts = {key: 0 for key in self._KINDS}
            self._counts[client] = counts
        counts[name] += 1
        if record.time > self._final_time:
            self._final_time = record.time

    def finish(self) -> List[Violation]:
        for client in sorted(self._counts):
            counts = self._counts[client]
            label = client or "client"
            if counts["request"] != counts["hit"] + counts["miss"]:
                self._violate(
                    "request_conservation", self._final_time,
                    f"{label}: {counts['request']} requests != "
                    f"{counts['hit']} hits + {counts['miss']} misses",
                )
            # Every miss starts a wait; only the run's final wait may be
            # cut off by a time limit, so the deficit is at most one.
            deficit = counts["miss"] - counts["wait"]
            if deficit not in (0, 1):
                self._violate(
                    "wait_conservation", self._final_time,
                    f"{label}: {counts['miss']} misses vs "
                    f"{counts['wait']} waits (deficit {deficit})",
                )
            # The retune allowance: a single-frequency tuner switches at
            # most once per miss (hits never touch the channel).
            if counts["retune"] > counts["miss"]:
                self._violate(
                    "retune_allowance", self._final_time,
                    f"{label}: {counts['retune']} retunes exceed "
                    f"{counts['miss']} misses",
                )
        return self.violations


class SchedulePeriodicityMonitor(Monitor):
    """Deliveries land on integral completions of the advertised slots."""

    name = "schedule_periodicity"

    def observe(self, record) -> None:
        if record.kind != "channel.deliver":
            return
        schedule = self.context.schedule
        if schedule is None:
            return
        if hasattr(schedule, "channel_schedule"):
            # Multi-channel program: the record names its row, and the
            # periodicity contract holds per channel.
            schedule = schedule.channel_schedule(
                int(record.fields.get("channel", 0))
            )
        now = record.time
        if abs(now - round(now)) > TIME_TOLERANCE:
            self._violate(
                "integral_completion", now,
                f"delivery at t={now!r} is not a slot completion instant",
            )
            return
        expected = schedule.page_at(now - 0.5)
        page = record.fields["page"]
        if expected != page:
            self._violate(
                "slot_consistency", now,
                f"delivery of page {page} at t={now!r}, but the schedule "
                f"holds {expected} in that slot",
            )


#: The monitors a default suite instantiates per run, in observe order.
DEFAULT_MONITORS: Tuple = (
    FixedInterarrivalMonitor,
    CacheOccupancyMonitor,
    ClockMonotonicityMonitor,
    ConservationMonitor,
    SchedulePeriodicityMonitor,
)


class MonitorSuite:
    """A trace sink that runs invariant monitors over every record.

    The execution layer calls :meth:`begin_run` / :meth:`end_run` around
    each plan through the run's enabled tracer; between them the suite
    behaves as an ordinary sink (``write`` / ``close``), so it composes
    with JSONL and memory sinks on one tracer.  Violations accumulate
    on :attr:`violations` across runs, each tagged with its run label.
    """

    def __init__(
        self,
        factories: Sequence = DEFAULT_MONITORS,
        *,
        mode: str = "record",
    ):
        if mode not in ("record", "strict"):
            raise ConfigurationError(
                f"monitor mode must be 'record' or 'strict', got {mode!r}"
            )
        self.factories = tuple(factories)
        self.mode = mode
        #: Violations from every completed run, in run order.
        self.violations: List[Violation] = []
        #: Completed monitored runs.
        self.runs = 0
        #: Records observed while a run was active.
        self.observed = 0
        self._active: Optional[List[Monitor]] = None
        self._label = ""

    # -- run lifecycle -----------------------------------------------------
    def begin_run(self, context: MonitorContext) -> None:
        """Instantiate fresh monitors for one run."""
        if self._active is not None:
            raise ConfigurationError(
                f"monitor run {self._label!r} is still active"
            )
        self._label = context.label
        self._active = [factory() for factory in self.factories]
        for monitor in self._active:
            monitor.begin(context)

    def end_run(self) -> List[Violation]:
        """Finish the active run; in strict mode, raise on violations."""
        if self._active is None:
            raise ConfigurationError("no monitor run is active")
        collected: List[Violation] = []
        for monitor in self._active:
            for violation in monitor.finish():
                collected.append(
                    Violation(
                        monitor=violation.monitor,
                        invariant=violation.invariant,
                        time=violation.time,
                        message=violation.message,
                        run=self._label,
                    )
                )
        self._active = None
        self.runs += 1
        collected = collected[:MAX_VIOLATIONS_PER_RUN]
        self.violations.extend(collected)
        if self.mode == "strict" and collected:
            first = collected[0]
            raise MonitorError(
                f"{len(collected)} invariant violation(s) in run "
                f"{self._label or '<unlabelled>'}; first: "
                f"[{first.monitor}/{first.invariant}] {first.message}"
            )
        return collected

    # -- sink protocol -----------------------------------------------------
    def write(self, record) -> None:
        """Feed one trace record to the active run's monitors."""
        active = self._active
        if active is None:
            return
        self.observed += 1
        for monitor in active:
            monitor.observe(record)

    def close(self) -> None:
        """Sinks are closed by tracers; monitor state outlives that."""

    # -- output ------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True while no run has violated an invariant."""
        return not self.violations

    def snapshot(self) -> Dict:
        """JSON-ready monitor document (embedded in manifests verbatim)."""
        return {
            "schema": MONITOR_SCHEMA,
            "mode": self.mode,
            "monitors": [factory.name for factory in self.factories],
            "runs": self.runs,
            "records_observed": self.observed,
            "violations": [v.to_dict() for v in self.violations],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MonitorSuite mode={self.mode} runs={self.runs} "
            f"violations={len(self.violations)}>"
        )
