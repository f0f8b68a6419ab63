"""The fast analytic-stepping simulation engine.

Because the §2.2 program gives every page a *fixed* inter-arrival time,
the wait a cache miss experiences is fully determined by the request
instant: ``next_completion(page, t) - t``.  The engine therefore
advances directly from request to request instead of ticking through
broadcast slots, which is what makes full paper-scale parameter sweeps
(48 design points at ``num_requests`` 15,000 each) practical in pure
Python.

One request loop (:meth:`FastEngine._run`) serves every scalar run — a
single-channel :class:`~repro.core.schedule.BroadcastSchedule` or a
C-row :class:`~repro.core.schedule.BroadcastProgram`, traced or not,
profiled or not — and is written to be allocation-free (see
``docs/PERFORMANCE.md``):

* the trace is materialised once as a plain python list, so the loop
  never boxes ``np.int64`` scalars;
* the cache protocol methods are hoisted to locals before the loop;
* the measured phase folds into locals — Welford's count, mean, M2
  and extrema in :meth:`~repro.sim.stats.RunningStats.add`'s operation
  order, the hit count and a per-disk miss list — written into the
  outcome's :class:`~repro.sim.stats.RunningStats` and
  :class:`~repro.cache.base.CacheCounters` after the loop;
* the per-run facts of every logical page the trace can request —
  physical page, the §2.1 ``(residue, gap)`` pair, channel and disk —
  are gathered in NumPy before the loop from the mapping, the
  schedule's :meth:`~repro.core.schedule.BroadcastSchedule.regular_timing`
  table and the layout's :func:`~repro.core.disks.disk_index_array`,
  into one list indexed by logical page, so a miss costs one list read
  and two integer ops; irregular pages (gap 0) are timed by bisection;
* the §5 fill test reads a local flag refreshed only after an admit,
  because a cache lookup never changes occupancy;
* tracing is a guarded ``if tracing:`` emit — the loop writes its own
  ``cache.lookup``, ``cache.admit`` and ``cache.evict`` records beside
  its ``client.*`` ones — and profiling is bookkeeping after the loop,
  so observing a run never changes which code runs.

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
every request left in the trace is measured.  A plan's trace holds
``num_requests`` plus a warm-up allowance
(:attr:`~repro.experiments.config.ExperimentConfig.requests_drawn`),
so a run measures ``num_requests`` plus whatever of the allowance its
warm-up left: D5 Δ=3 PIX at CacheSize = Offset = 500, Noise 30% and
``num_requests`` 1,500 draws 7,500 requests, warms up on 4,017 and
measures 3,483, on every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.base import CacheCounters, CachePolicy
from repro.core.disks import DiskLayout, disk_index_array
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.errors import ConfigurationError
from repro.sim.stats import RunningStats
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class EngineOutcome:
    """One client's measurements from one run, whichever engine ran it.

    The fast and columnar engines build it after their loops; a
    process-engine :class:`~repro.client.client.Client` fills its own
    as it runs, so every field starts empty.
    """

    response: RunningStats = field(default_factory=RunningStats)
    counters: CacheCounters = field(default_factory=CacheCounters)
    warmup_requests: int = 0
    #: Simulation clock when the client finished its trace, in
    #: broadcast units.
    final_time: float = 0.0
    #: Per-request response times of the measured phase; populated only
    #: when the engine ran with ``collect_responses=True``.
    samples: Optional[list] = None
    #: Channel switches during the measured phase (always 0 on a
    #: single-channel schedule — there is nothing to switch to).
    retunes: int = 0

    @property
    def measured_requests(self) -> int:
        """Requests measured after warm-up."""
        return self.response.count

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
        #: ``client.*`` and ``cache.*`` records as the process engine's
        #: client; ``None`` (the default) costs the loop one local
        #: branch per emit site.
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

    def _page_facts(
        self, limit: int, *, bisect: bool
    ) -> List[Tuple[int, int, int, int, int]]:
        """``(physical, residue, gap, channel, disk)`` of every logical
        page below ``limit``, gathered in NumPy.

        A gap of 0 sends the page's misses to bisection: irregular
        pages, every page under ``bisect``, and pages the broadcast does
        not carry, whose bisection raises the schedule's
        :class:`~repro.errors.ScheduleError`.  Logical pages the mapping
        does not cover get no entry, so requesting one raises an
        ``IndexError`` as a mapping lookup would.
        """
        schedule = self.schedule
        physical = self.mapping.physical_array()[:limit]
        disks = disk_index_array(self.layout)
        outside = physical >= len(disks)
        if outside.any():
            raise ConfigurationError(
                f"page {int(physical[outside][0])} outside database "
                f"[0, {len(disks)})"
            )
        disk = disks[physical]
        residue, gap = schedule.regular_timing()
        carried = physical < len(gap)
        index = np.where(carried, physical, 0)
        gaps = (np.zeros_like(physical) if bisect
                else np.where(carried, gap[index], 0))
        channel = (
            schedule.channel_array()[index]
            if isinstance(schedule, BroadcastProgram)
            else np.zeros_like(physical)
        )
        return list(zip(
            physical.tolist(), residue[index].tolist(), gaps.tolist(),
            channel.tolist(), disk.tolist(),
        ))

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
        next_arrival_bisect = schedule.next_arrival_bisect
        tuned = isinstance(schedule, BroadcastProgram)

        # The measured phase folds into locals: Welford's count, mean,
        # M2 and extrema in RunningStats.add's operation order, hits,
        # and misses per disk.
        count = 0
        mean = 0.0
        m2 = 0.0
        minimum = math.inf
        maximum = -math.inf
        hits = 0
        disk_misses = [0] * self.layout.num_disks
        samples: Optional[List[float]] = [] if collect_responses else None

        # Measurement starts after ``warmup_requests`` requests when
        # given, else once the cache is full plus ``extra_warmup`` more.
        fill_rule = warmup_requests is None
        full = fill_rule and cache.is_full
        extra_left = extra_warmup
        warming = True
        warmup_seen = 0
        warmup_misses = 0
        current = 0  # tuned channel; every client starts on channel 0
        retunes = 0
        retunes_measured = 0
        now = self.now

        # One plain-python materialisation of the trace: list iteration
        # yields cached ints instead of boxing an np.int64 per request.
        pages = trace.pages.tolist()
        facts = self._page_facts(int(trace.pages.max()) + 1, bisect=bisect)
        for page in pages:
            now += think
            if warming:
                if fill_rule:
                    if full:
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
                    emit("cache.lookup", now, page=page, hit=True)
                    emit("client.hit", now, page=page)
                if not warming:
                    hits += 1
                    count += 1
                    delta = 0.0 - mean
                    mean += delta / count
                    m2 += delta * (0.0 - mean)
                    if 0.0 < minimum:
                        minimum = 0.0
                    if 0.0 > maximum:
                        maximum = 0.0
                    if samples is not None:
                        samples.append(0.0)
                continue

            physical, residue, gap, channel, disk = facts[page]
            if tracing:
                emit("cache.lookup", now, page=page, hit=False)
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
                arrival = next_arrival_bisect(physical, listen)
            wait = arrival - now
            now = arrival
            if tracing:
                emit("client.wait", now, page=page, physical=physical,
                     wait=wait)
                victim = cache_admit(page, now)
                emit("cache.admit", now, page=page,
                     victim=None if victim is None else int(victim))
                if victim is not None and victim != page:
                    emit("cache.evict", now, page=int(victim), admitted=page)
            else:
                cache_admit(page, now)
            if warming:
                warmup_misses += 1
                if fill_rule and not full:
                    full = cache.is_full
            else:
                count += 1
                delta = wait - mean
                mean += delta / count
                m2 += delta * (wait - mean)
                if wait < minimum:
                    minimum = wait
                if wait > maximum:
                    maximum = wait
                disk_misses[disk] += 1
                if samples is not None:
                    samples.append(wait)

        response = RunningStats()
        response.count = count
        response._mean = mean
        response._m2 = m2
        response.minimum = minimum
        response.maximum = maximum
        counters = CacheCounters(
            hits=hits,
            misses=count - hits,
            per_disk_misses={
                disk: misses
                for disk, misses in enumerate(disk_misses) if misses
            },
        )

        profile = self.profile
        if profile is not None and profile.enabled:
            name = "reference" if bisect else "fast"
            misses = warmup_misses + counters.misses
            profile.count(f"engine.{name}.loop_iterations", len(pages))
            profile.count(f"engine.{name}.hits", len(pages) - misses)
            profile.count(f"engine.{name}.misses", misses)
            if tuned:
                profile.count(f"engine.{name}.retunes", retunes)

        self.now = now
        return EngineOutcome(
            response=response,
            counters=counters,
            warmup_requests=warmup_seen,
            final_time=now,
            samples=samples,
            retunes=retunes_measured,
        )
