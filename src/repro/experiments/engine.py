"""The fast analytic-stepping simulation engine.

Because the §2.2 program gives every page a *fixed* inter-arrival time,
the wait a cache miss experiences is fully determined by the request
instant: ``next_completion(page, t) - t``.  The engine therefore
advances directly from request to request instead of ticking through
broadcast slots, which is what makes full paper-scale parameter sweeps
(48 design points x 15,000 measured requests each) practical in pure
Python.

One request loop (:meth:`FastEngine._run`) serves every scalar run — a
single-channel :class:`~repro.core.schedule.BroadcastSchedule` or a
C-row :class:`~repro.core.schedule.BroadcastProgram`, traced or not,
profiled or not — and is written to be allocation-free (see
``docs/PERFORMANCE.md``):

* the trace is materialised once as a plain python list, so the loop
  never boxes ``np.int64`` scalars;
* every attribute lookup (cache protocol methods, stats accumulators,
  the schedule's tables) is hoisted to a local before the loop;
* a page's first miss stores its per-run facts — physical page, the
  §2.1 ``(residue, gap)`` pair from
  :meth:`~repro.core.schedule.BroadcastSchedule.fixed_gap`, channel and
  disk — so every later miss costs one dict probe and two integer ops;
  irregular pages (gap 0) are timed by bisection;
* tracing is a guarded ``if tracing:`` emit, and profiling is
  bookkeeping after the loop, so observing a run never changes which
  code runs.

:meth:`FastEngine.run_trace_reference` is the same loop with every miss
timed by :meth:`~repro.core.schedule.BroadcastSchedule.next_arrival_bisect`
instead of the closed form; the perf gate and the equivalence tests
compare the two arithmetics.

The engine is semantically identical to the process-oriented engine in
:mod:`repro.experiments.simengine` — the test suite feeds both the same
trace and asserts per-request equality — but is the default for all
figure reproductions.

Measurement protocol (§5): response times are recorded only once the
cache has filled ("the cache warm-up effects were eliminated by
beginning our measurements only after the cache was full"), after which
``num_requests`` requests are measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.base import CacheCounters, CachePolicy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.errors import ConfigurationError
from repro.sim.stats import RunningStats
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class EngineOutcome:
    """Raw measurements from one engine run."""

    response: RunningStats
    counters: CacheCounters
    measured_requests: int
    warmup_requests: int
    final_time: float
    #: Per-request response times of the measured phase; populated only
    #: when the engine ran with ``collect_responses=True``.
    samples: Optional[list] = None
    #: Channel switches during the measured phase (always 0 on a
    #: single-channel schedule — there is nothing to switch to).
    retunes: int = 0

    @property
    def mean_response_time(self) -> float:
        """Mean response time over the measured phase, in broadcast units."""
        return self.response.mean


class FastEngine:
    """Request-to-request stepping over a periodic broadcast schedule."""

    def __init__(
        self,
        schedule: BroadcastSchedule,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        cache: CachePolicy,
        think_time: float,
        tracer=None,
        profile=None,
        *,
        retune_cost: float = 1.0,
    ):
        if think_time < 0:
            raise ConfigurationError(f"think_time must be >= 0, got {think_time}")
        if retune_cost < 0:
            raise ConfigurationError(
                f"retune_cost must be >= 0, got {retune_cost}"
            )
        #: A single-channel schedule or a multi-channel
        #: :class:`~repro.core.schedule.BroadcastProgram`; a bare
        #: schedule runs as a one-row program (every page on channel 0,
        #: so the tuner never switches).
        self.schedule = schedule
        self.retune_cost = retune_cost
        self.mapping = mapping
        self.layout = layout
        self.cache = cache
        self.think_time = think_time
        self.now = 0.0
        #: Optional :class:`repro.obs.trace.Tracer` emitting the same
        #: ``client.*`` records as the process engine's client; ``None``
        #: (the default) costs the loop one local branch per emit site.
        self.tracer = tracer
        #: Optional :class:`repro.obs.profile.Profiler`, filled after the
        #: loop from the run's own counts: it never changes which code
        #: runs.
        self.profile = profile

    def run_trace(
        self,
        trace: RequestTrace,
        warmup_requests: Optional[int] = None,
        collect_responses: bool = False,
        extra_warmup: int = 0,
    ) -> EngineOutcome:
        """Run the full trace; measure once warm-up ends.

        The default warm-up rule is the paper's §5 protocol: wait until
        the cache is full, then (to measure *steady state*, not the
        cache-convergence transient) keep warming for ``extra_warmup``
        further requests.  ``warmup_requests`` overrides both with a
        fixed request count.  With ``collect_responses`` the per-request
        response times of the measured phase are retained on the outcome
        (``outcome.samples``) for engine cross-validation.
        """
        return self._run(
            trace, warmup_requests, collect_responses, extra_warmup,
            bisect=False,
        )

    def run_trace_reference(
        self,
        trace: RequestTrace,
        warmup_requests: Optional[int] = None,
        collect_responses: bool = False,
        extra_warmup: int = 0,
    ) -> EngineOutcome:
        """:meth:`run_trace` with every miss timed by bisection.

        Same loop, golden-model arithmetic:
        :meth:`~repro.core.schedule.BroadcastSchedule.next_arrival_bisect`
        instead of the §2.1 closed form.  ``benchmarks/bench_engine.py``
        and the equivalence tests demand byte-identical measurements
        from both; it is registered as the ``fast-reference`` engine.
        """
        return self._run(
            trace, warmup_requests, collect_responses, extra_warmup,
            bisect=True,
        )

    def _run(
        self,
        trace: RequestTrace,
        warmup_requests: Optional[int],
        collect_responses: bool,
        extra_warmup: int,
        *,
        bisect: bool,
    ) -> EngineOutcome:
        """The request loop behind both public entry points.

        The client's single-frequency tuner listens to one channel at a
        time (channel 0 initially); a miss whose page lives on another
        channel first retunes, which moves the earliest usable
        completion from ``now`` to ``now + retune_cost``.
        """
        schedule = self.schedule
        cache = self.cache
        think = self.think_time
        retune_cost = self.retune_cost
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        emit = tracer.emit if tracing else None

        # Hoist every per-request attribute lookup out of the loop.
        cache_lookup = cache.lookup
        cache_admit = cache.admit
        to_physical = self.mapping.to_physical
        disk_of_physical = self.layout.disk_of_page
        fixed_gap = schedule.fixed_gap
        next_arrival_bisect = schedule.next_arrival_bisect
        channel_of = (
            schedule.channel_map()
            if isinstance(schedule, BroadcastProgram) else None
        )

        response = RunningStats()
        counters = CacheCounters()
        response_add = response.add
        record_hit = counters.record_hit
        record_miss = counters.record_miss
        samples: Optional[List[float]] = [] if collect_responses else None

        # Per-run facts of each requested (logical) page, stored on its
        # first miss: (physical, residue, gap, channel, disk).  A gap of
        # 0 sends the page's misses to bisection.
        facts: Dict[int, Tuple[int, int, int, int, int]] = {}
        facts_get = facts.get

        # Measurement starts after ``warmup_requests`` requests when
        # given, else once the cache is full plus ``extra_warmup`` more.
        fill_rule = warmup_requests is None
        extra_left = extra_warmup
        warming = True
        warmup_seen = 0
        warmup_misses = 0
        bisected = 0
        current = 0  # tuned channel; every client starts on channel 0
        retunes = 0
        retunes_measured = 0
        now = self.now

        # One plain-python materialisation of the trace: list iteration
        # yields cached ints instead of boxing an np.int64 per request.
        pages = trace.pages.tolist()
        for page in pages:
            now += think
            if warming:
                if fill_rule:
                    if cache.is_full:
                        if extra_left <= 0:
                            warming = False
                        else:
                            extra_left -= 1
                else:
                    warming = warmup_seen < warmup_requests
                if warming:
                    warmup_seen += 1
            if tracing:
                emit("client.request", now, page=page,
                     phase="warmup" if warming else "measured")

            if cache_lookup(page, now):
                if tracing:
                    emit("client.hit", now, page=page)
                if not warming:
                    response_add(0.0)
                    record_hit()
                    if samples is not None:
                        samples.append(0.0)
                continue

            fact = facts_get(page)
            if fact is None:
                physical = to_physical(page)
                entry = None if bisect else fixed_gap(physical)
                residue, gap = (0, 0) if entry is None else entry
                fact = (
                    physical, residue, gap,
                    0 if channel_of is None else channel_of[physical],
                    disk_of_physical(physical),
                )
                facts[page] = fact
            physical, residue, gap, channel, disk = fact
            if tracing:
                emit("client.miss", now, page=page, physical=physical)
            listen = now
            if channel != current:
                retunes += 1
                if not warming:
                    retunes_measured += 1
                if tracing:
                    emit("client.retune", now, page=page, physical=physical,
                         from_channel=current, to_channel=channel)
                current = channel
                listen = now + retune_cost
            if gap:
                base = int(listen) + 1
                arrival = float(base + (residue - base) % gap)
            else:
                bisected += 1
                arrival = next_arrival_bisect(physical, listen)
            wait = arrival - now
            if tracing:
                emit("client.wait", arrival, page=page, physical=physical,
                     wait=wait)
            now = arrival
            cache_admit(page, now)
            if warming:
                warmup_misses += 1
            else:
                response_add(wait)
                record_miss(disk)
                if samples is not None:
                    samples.append(wait)

        profile = self.profile
        if profile is not None and profile.enabled:
            name = "reference" if bisect else "fast"
            misses = warmup_misses + counters.misses
            profile.count(f"engine.{name}.loop_iterations", len(pages))
            profile.count(f"engine.{name}.hits", len(pages) - misses)
            profile.count(f"engine.{name}.misses", misses)
            if channel_of is not None:
                profile.count(f"engine.{name}.retunes", retunes)
            schedule.book_timing_queries(
                {"closed_form": misses - bisected, "bisect": bisected}
            )

        self.now = now
        return EngineOutcome(
            response=response,
            counters=counters,
            measured_requests=response.count,
            warmup_requests=warmup_seen,
            final_time=now,
            samples=samples,
            retunes=retunes_measured,
        )
