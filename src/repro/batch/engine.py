"""The general columnar engine: N clients advanced per request step.

Every per-client scalar of the fast engine's loop becomes a length-N
array here — clock, warm-up state, Welford accumulators, per-disk miss
counts — and every cache decision goes through the columnar policies in
:mod:`repro.cache.batched`.  The per-step arithmetic replicates
:meth:`repro.experiments.engine.FastEngine.run_trace` element for
element, which makes every column **byte-identical** to its client's
``fast`` run (``tests/test_properties_batch.py`` and
``scripts/batch_smoke.py`` compare them column by column).

A step costs a fixed handful of NumPy calls, whatever the fleet width:

* **Miss timing** is the schedule's closed form by physical page,
  :meth:`~repro.core.schedule.BroadcastSchedule.regular_arrivals`.
  One check per run (every page of the program has a fixed gap) stands
  in for per-call validity masks; a program with an irregular page
  takes :meth:`~repro.core.schedule.BroadcastSchedule.
  next_arrival_batch`, which answers irregular pages one by one.
* **The fold** is one full-width Welford update masked to the measuring
  clients.  Measured misses scatter into a flat ``(disks, clients)``
  count matrix; hits and misses are derived from it after the loop.

Multi-channel programs run natively: the engine carries a per-client
tuned-channel column and applies the single-frequency tuner as array
ops — on each miss the target channel is looked up in the program's
dense ``channel_array`` and retune costs are added where the target
differs — replicating the scalar tuner per client, including the
``client.retune`` trace record between miss and wait.

Tracing: with one client the emitted record stream is identical to the
fast engine's, ``client.*`` and ``cache.*`` records alike.  With many
clients every record additionally carries a ``client`` label so the
invariant monitors can key their per-stream state per client.

Profiling: the engine books its ``engine.batch.*`` counters after the
loop; ``engine.batch.misses`` equals the run's ``client.miss`` records
(asserted in CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.base import CacheCounters
from repro.cache.batched import (
    FREE,
    BatchedOracles,
    BatchedPolicy,
    make_batched_policy,
)
from repro.core.disks import DiskLayout, disk_index_array
from repro.core.schedule import BroadcastSchedule, frequency_array
from repro.errors import ConfigurationError
from repro.sim.stats import RunningStats

__all__ = [
    "BatchOutcome",
    "ColumnarEngine",
    "build_columnar_engine",
    "disk_index_array",
    "frequency_array",
]


@dataclass
class BatchOutcome:
    """Columnar measurements: one column per client."""

    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    per_disk_misses: np.ndarray
    warmup_seen: np.ndarray
    final_time: np.ndarray
    samples: Optional[List[float]] = None
    #: Measured-phase channel switches per client (zeros on
    #: single-channel runs, matching the scalar engines).
    retunes: Optional[np.ndarray] = None

    @property
    def num_clients(self) -> int:
        return len(self.count)

    def hit_rate(self, client: int) -> float:
        """Measured-phase hit rate of one client."""
        requests = int(self.hits[client] + self.misses[client])
        return float(self.hits[client]) / requests if requests else 0.0

    def to_engine_outcome(self, client: int = 0):
        """One client's column as a scalar-engine ``EngineOutcome``.

        For a single-client run the result is byte-identical to what
        ``FastEngine.run_trace`` returns for the same trace.
        """
        from repro.experiments.engine import EngineOutcome

        response = RunningStats()
        response.count = int(self.count[client])
        response._mean = float(self.mean[client])
        response._m2 = float(self.m2[client])
        response.minimum = float(self.minimum[client])
        response.maximum = float(self.maximum[client])
        counters = CacheCounters(
            hits=int(self.hits[client]),
            misses=int(self.misses[client]),
            per_disk_misses={
                disk: int(self.per_disk_misses[disk, client])
                for disk in range(self.per_disk_misses.shape[0])
                if self.per_disk_misses[disk, client]
            },
        )
        return EngineOutcome(
            response=response,
            counters=counters,
            warmup_requests=int(self.warmup_seen[client]),
            final_time=float(self.final_time[client]),
            samples=self.samples,
            retunes=(
                0 if self.retunes is None else int(self.retunes[client])
            ),
        )


class ColumnarEngine:
    """Lockstep request stepping over one shared broadcast schedule."""

    def __init__(
        self,
        schedule: BroadcastSchedule,
        policy: BatchedPolicy,
        physical: np.ndarray,
        disk_of: np.ndarray,
        num_disks: int,
        think_time: float,
        *,
        access_range: int,
        channel_of: Optional[np.ndarray] = None,
        num_channels: int = 1,
        retune_cost: float = 1.0,
    ):
        if think_time < 0:
            raise ConfigurationError(
                f"think_time must be >= 0, got {think_time}"
            )
        if retune_cost < 0:
            raise ConfigurationError(
                f"retune_cost must be >= 0, got {retune_cost}"
            )
        physical = np.asarray(physical, dtype=np.int64)
        if physical.ndim != 2:
            raise ConfigurationError(
                "physical must be a (clients, pages) or (1, pages) matrix"
            )
        if physical.shape[0] not in (1, policy.num_clients):
            raise ConfigurationError(
                f"physical has {physical.shape[0]} rows for "
                f"{policy.num_clients} clients"
            )
        if physical.shape[1] < access_range:
            raise ConfigurationError(
                f"physical has {physical.shape[1]} columns, narrower than "
                f"access_range {access_range}"
            )
        self.schedule = schedule
        self.policy = policy
        self.physical = physical
        self.disk_of = np.asarray(disk_of, dtype=np.int64)
        self.num_disks = num_disks
        self.think_time = float(think_time)
        #: Dense page -> channel lookup for C-row programs; ``None``
        #: keeps the single-channel loop free of tuner arithmetic.
        self.channel_of = (
            None if channel_of is None
            else np.asarray(channel_of, dtype=np.int64)
        )
        self.num_channels = int(num_channels)
        self.retune_cost = float(retune_cost)
        #: Logical page ids a trace may request: ``[0, access_range)``.
        self.access_range = int(access_range)

    def run(
        self,
        pages: np.ndarray,
        *,
        warmup_requests: Optional[int] = None,
        extra_warmup: int = 0,
        collect_responses: bool = False,
        tracer=None,
        profile=None,
        client_labels: Optional[Sequence[str]] = None,
    ) -> BatchOutcome:
        """Advance every client through its trace column.

        ``pages`` is a ``(steps, clients)`` matrix of logical page ids —
        column ``c`` is client ``c``'s request trace.  The warm-up rule
        is the fast engine's: a fixed ``warmup_requests`` count when
        given, else each client individually warms until its cache is
        full plus ``extra_warmup`` further requests.  A page id outside
        ``[0, access_range)`` raises :class:`ConfigurationError`.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.ndim != 2:
            raise ConfigurationError(
                "pages must be a (steps, clients) matrix"
            )
        steps, clients = pages.shape
        policy = self.policy
        if clients != policy.num_clients:
            raise ConfigurationError(
                f"trace has {clients} columns for {policy.num_clients} clients"
            )
        # Page -1 is the empty-slot marker and larger ids would wrap
        # through the mapping or the page index, so reject both.
        if pages.size:
            low, high = int(pages.min()), int(pages.max())
            if low < 0 or high >= self.access_range:
                raise ConfigurationError(
                    f"trace requests page {low if low < 0 else high}; page "
                    f"ids must lie in [0, {self.access_range}) (the "
                    "access range)"
                )
        schedule = self.schedule
        think = self.think_time
        emit = tracer is not None and tracer.enabled
        profiling = profile is not None and profile.enabled
        if client_labels is not None and len(client_labels) != clients:
            raise ConfigurationError(
                f"{len(client_labels)} labels for {clients} clients"
            )

        now = np.zeros(clients, dtype=np.float64)
        warming = np.ones(clients, dtype=bool)
        measuring = np.zeros(clients, dtype=bool)
        any_warming = True
        warmup_seen = np.zeros(clients, dtype=np.int64)
        extra_left = np.full(clients, int(extra_warmup), dtype=np.int64)

        count = np.zeros(clients, dtype=np.int64)
        mean = np.zeros(clients, dtype=np.float64)
        m2 = np.zeros(clients, dtype=np.float64)
        minimum = np.full(clients, np.inf, dtype=np.float64)
        maximum = np.full(clients, -np.inf, dtype=np.float64)
        per_disk = np.zeros((self.num_disks, clients), dtype=np.int64)
        # Flat position ``disk * clients + client``: one scatter a step.
        per_disk_flat = per_disk.reshape(-1)
        total_misses = 0
        samples: Optional[List[float]] = (
            [] if collect_responses and clients == 1 else None
        )

        value = np.zeros(clients, dtype=np.float64)
        delta = np.empty(clients, dtype=np.float64)
        scratch = np.empty(clients, dtype=np.float64)
        physical_step = np.zeros(clients, dtype=np.int64)
        # A physical page's flat per-disk position, less the client.
        disk_row = self.disk_of * clients
        table = self.physical
        shared_row = table[0] if table.shape[0] == 1 else None
        # The closed form holds when every physical page the mapping
        # holds is in the timing tables and every page of the program
        # has a fixed gap; otherwise next_arrival_batch times each miss.
        gap = schedule.regular_timing()[1]
        closed_form = (
            int(table.min()) >= 0 and int(table.max()) < len(gap)
            and bool(gap.all())
        )

        # Single-frequency tuner state (C-row programs only): every
        # client starts tuned to channel 0, exactly like the scalar
        # tuner loop.
        channel_of = self.channel_of
        tuned = channel_of is not None
        if tuned:
            current = np.zeros(clients, dtype=np.int64)
            retunes_measured = np.zeros(clients, dtype=np.int64)
            retune_step = np.zeros(clients, dtype=bool)
            retune_from = np.zeros(clients, dtype=np.int64)
            per_channel_misses = np.zeros(self.num_channels, dtype=np.int64)
            total_retunes = 0
            retune_cost = self.retune_cost

        for step in range(steps):
            page = pages[step]
            now += think

            # Warm-up, in the scalar loop's order: resolved per client
            # before the lookup, against the cache state left by the
            # previous request.  Once no client warms, none will again.
            if any_warming:
                if warmup_requests is not None:
                    np.logical_and(
                        warming, warmup_seen < warmup_requests, out=warming
                    )
                else:
                    ready = warming & policy.is_full()
                    if ready.any():
                        graceful = ready & (extra_left > 0)
                        extra_left[graceful] -= 1
                        warming[ready & ~graceful] = False
                warmup_seen += warming
                np.logical_not(warming, out=measuring)
                any_warming = bool(warming.any())

            request_time = now.copy() if emit else None

            hit = policy.lookup(page, now)
            miss = ~hit
            victims = None
            value.fill(0.0)
            rows = miss.nonzero()[0]
            if emit and tuned:
                retune_step.fill(False)
            if len(rows):
                total_misses += len(rows)
                physical = (
                    shared_row[page[rows]] if shared_row is not None
                    else table[rows, page[rows]]
                )
                at = now[rows]
                listen = at
                if tuned:
                    # A miss on another channel's page retunes first: the
                    # earliest usable completion moves to ``now +
                    # retune_cost``; the wait still counts from ``now``.
                    target = channel_of[physical]
                    was = current[rows]
                    switch = target != was
                    listen = at + retune_cost * switch
                    current[rows] = target
                    if emit:
                        retune_step[rows] = switch
                        retune_from[rows] = was
                    if profiling:
                        total_retunes += int(switch.sum())
                        per_channel_misses += np.bincount(
                            target, minlength=self.num_channels
                        )
                if closed_form:
                    arrivals = schedule.regular_arrivals(physical, listen)
                else:
                    arrivals = schedule.next_arrival_batch(physical, listen)
                value[rows] = arrivals - at
                now[rows] = arrivals
                victims = policy.admit(page, now, miss)
                if emit:
                    physical_step[rows] = physical
                position = disk_row[physical] + rows
                if any_warming:
                    kept = measuring[rows]
                    position = position[kept]
                    if tuned:
                        switch = switch & kept
                per_disk_flat[position] += 1
                if tuned:
                    retunes_measured[rows[switch]] += 1

            # Welford's update, masked to the measuring clients: per
            # element RunningStats.add's operations (a hit adds 0.0).
            count += measuring
            np.subtract(value, mean, out=delta)
            np.divide(delta, count, out=scratch, where=measuring)
            np.add(mean, scratch, out=mean, where=measuring)
            np.subtract(value, mean, out=scratch)
            np.multiply(delta, scratch, out=scratch)
            np.add(m2, scratch, out=m2, where=measuring)
            np.minimum(minimum, value, out=minimum, where=measuring)
            np.maximum(maximum, value, out=maximum, where=measuring)
            if samples is not None and measuring[0]:
                samples.append(float(value[0]))

            if emit:
                self._emit_step(
                    tracer, client_labels, request_time, page, hit,
                    measuring, physical_step, now, value, victims,
                    retune_step=retune_step if tuned else None,
                    retune_from=retune_from if tuned else None,
                    retune_to=current if tuned else None,
                )

        if profiling:
            profile.count("engine.batch.loop_iterations", steps * clients)
            profile.count("engine.batch.clients", clients)
            profile.count("engine.batch.hits", steps * clients - total_misses)
            profile.count("engine.batch.misses", total_misses)
            if tuned:
                profile.count("engine.batch.retunes", total_retunes)
                for channel in range(self.num_channels):
                    profile.count(
                        f"engine.batch.channel.{channel}.misses",
                        int(per_channel_misses[channel]),
                    )

        misses = per_disk.sum(axis=0)
        return BatchOutcome(
            count=count,
            mean=mean,
            m2=m2,
            minimum=minimum,
            maximum=maximum,
            hits=count - misses,
            misses=misses,
            per_disk_misses=per_disk,
            warmup_seen=warmup_seen,
            final_time=now,
            samples=samples,
            retunes=retunes_measured if tuned else None,
        )

    def _emit_step(
        self, tracer, labels, request_time, page, hit, measuring,
        physical_step, now, value, victims, *,
        retune_step=None, retune_from=None, retune_to=None,
    ) -> None:
        """Emit one step's records, per client, in the scalar order.

        For a single unlabelled client the sequence is byte-identical to
        the fast engine's traced run, ``client.*`` and ``cache.*``
        records alike — including the ``client.retune`` record a
        multi-channel miss slips between its miss and wait.  Labelled
        runs add a ``client`` field to every record.
        """
        for client in range(len(page)):
            extra = {} if labels is None else {"client": labels[client]}
            page_id = int(page[client])
            requested = float(request_time[client])
            tracer.emit(
                "client.request", requested, page=page_id,
                phase="measured" if measuring[client] else "warmup",
                **extra,
            )
            tracer.emit(
                "cache.lookup", requested, page=page_id,
                hit=bool(hit[client]), **extra,
            )
            if hit[client]:
                tracer.emit("client.hit", requested, page=page_id, **extra)
                continue
            physical = int(physical_step[client])
            arrival = float(now[client])
            tracer.emit(
                "client.miss", requested, page=page_id, physical=physical,
                **extra,
            )
            if retune_step is not None and retune_step[client]:
                tracer.emit(
                    "client.retune", requested, page=page_id,
                    physical=physical,
                    from_channel=int(retune_from[client]),
                    to_channel=int(retune_to[client]),
                    **extra,
                )
            tracer.emit(
                "client.wait", arrival, page=page_id, physical=physical,
                wait=float(value[client]), **extra,
            )
            victim = int(victims[client])
            tracer.emit(
                "cache.admit", arrival, page=page_id,
                victim=None if victim == FREE else victim, **extra,
            )
            if victim != FREE and victim != page_id:
                tracer.emit(
                    "cache.evict", arrival, page=victim, admitted=page_id,
                    **extra,
                )


def build_columnar_engine(
    config,
    schedule: BroadcastSchedule,
    layout: DiskLayout,
    physical: np.ndarray,
    num_clients: int,
) -> ColumnarEngine:
    """Assemble a columnar engine for ``num_clients`` copies of ``config``.

    ``physical`` is the logical→physical page matrix — one shared row
    for noise-free groups, one row per client otherwise — holding at
    least the ``access_range`` columns a trace can request.  A policy
    without a columnar formulation raises
    :class:`~repro.errors.ConfigurationError`.  A multi-channel
    :class:`~repro.core.schedule.BroadcastProgram` (detected by its
    ``channel_array`` surface) arms the vectorized single-frequency
    tuner: per-client tuned-channel state, retune-cost arithmetic, and
    retune counters, byte-identical per client to the fast engine's
    scalar tuner.
    """
    physical = np.asarray(physical, dtype=np.int64)
    access_range = config.access_range
    frequency_physical = frequency_array(schedule)
    disk_of = disk_index_array(layout)
    logical = physical[:, :access_range]
    oracles = BatchedOracles(
        probability=config.build_distribution().probabilities(),
        frequency=frequency_physical[logical],
        # Disk ids in the narrowest dtype: one byte per (client, page).
        disk=disk_of.astype(np.min_scalar_type(-layout.num_disks))[logical],
        num_disks=layout.num_disks,
        lix_alpha=config.lix_alpha,
    )
    policy = make_batched_policy(
        config.policy, num_clients, config.cache_size, oracles
    )
    channel_of = None
    num_channels = 1
    if hasattr(schedule, "channel_array") and schedule.num_channels > 1:
        channel_of = schedule.channel_array()
        num_channels = schedule.num_channels
    return ColumnarEngine(
        schedule=schedule,
        policy=policy,
        physical=physical,
        disk_of=disk_of,
        num_disks=layout.num_disks,
        think_time=config.think_time,
        access_range=access_range,
        channel_of=channel_of,
        num_channels=num_channels,
        retune_cost=float(config.retune_cost),
    )
