"""The hybrid push/pull study against the classes it ran on before.

``HybridClient`` used to step its own request loop beside the process
engine's ``Client``, and ``HybridChannel`` kept its own push-waiter
registry and demand event beside ``BroadcastChannel``'s.  Both are now
subclasses: the client overrides only the miss step, the channel only
the stretched push timeline and the deliveries.  The old classes are kept here, as they were, as the
reference: over hypothesis-drawn worlds (1-6 clients sharing one
channel and upstream link) old and new must give equal reports, pull
counts, queue statistics and final clocks.  ``pulls_won`` is left out:
the old client counted every pull attempt as a win, and
``tests/test_hybrid.py`` tests the corrected count.
"""

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import CacheCounters, CachePolicy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.hybrid.channel import HybridChannel
from repro.hybrid.client import HybridClient
from repro.server.server import BroadcastServer
from repro.sim.kernel import Event, Simulator
from repro.sim.process import AnyOf, Process
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams
from repro.sim.stats import RunningStats, TimeWeightedStat
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace, generate_trace


class ReferenceHybridChannel:
    """Push program + pull queue sharing one broadcast channel.

    Its server-facing methods are a plain channel's, so a
    :class:`~repro.server.server.BroadcastServer` drives it.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: BroadcastSchedule,
        pull_spacing: int,
    ):
        if pull_spacing < 2:
            raise ConfigurationError(
                f"pull_spacing must be >= 2 (k-th slot reserved), "
                f"got {pull_spacing}"
            )
        self.sim = sim
        self.schedule = schedule
        self.pull_spacing = pull_spacing
        # Pull queue: (physical_page, waiter event).
        self._pull_queue: Deque[Tuple[int, Event]] = deque()
        # Push waiters: (due_time, page) -> events (same shape as the
        # plain BroadcastChannel).
        self._push_waiters: Dict[Tuple[float, int], List[Event]] = {}
        self._demand_event: Optional[Event] = None
        self.pull_slots_used = 0
        self.pull_slots_wasted = 0
        #: Time-weighted pull-queue length (a load/utilisation measure).
        self.queue_stat = TimeWeightedStat(start_time=sim.now)

    # -- time arithmetic ---------------------------------------------------
    def real_time_of_push_slot(self, push_slot: int) -> int:
        """Real slot index at which (absolute) push slot ``push_slot`` airs."""
        k = self.pull_spacing
        return push_slot + push_slot // (k - 1)

    def next_push_arrival(self, physical_page: int, time: float) -> float:
        """Completion instant of the page's next *push* transmission.

        Analogue of :meth:`BroadcastSchedule.next_arrival` on the
        stretched timeline.
        """
        schedule = self.schedule
        occurrences = schedule.occurrences(physical_page)
        period = schedule.period
        k = self.pull_spacing

        # Convert 'time' to the absolute push-slot axis: among real
        # slots [0, floor(time)], floor(time)+1 - (floor(time)+1)//k are
        # push slots.  A slot airing right now completes *after* 'time',
        # so start the forward walk a couple of slots early and let the
        # strict completion check pick the true next arrival.
        completed_real = int(math.floor(time))
        pushed = completed_real + 1 - ((completed_real + 1) // k)
        start = max(0, pushed - 2)

        cycle, position = divmod(start, period)
        index = bisect_right(occurrences, position - 1)
        for _attempt in range(len(occurrences) + 4):
            if index == len(occurrences):
                cycle += 1
                index = 0
            absolute = cycle * period + int(occurrences[index])
            completion = float(self.real_time_of_push_slot(absolute)) + 1.0
            if completion > time:
                return completion
            index += 1
        raise AssertionError("unreachable: bounded search must terminate")

    def next_pull_slot_completion(self, time: float, queue_position: int) -> float:
        """Completion instant of the (queue_position+1)-th pull slot after ``time``.

        Pull slots complete at real instants ``k, 2k, 3k, ...``.
        """
        k = self.pull_spacing
        first = (math.floor(time) // k + 1) * k
        if first <= time:
            first += k
        return float(first + queue_position * k)

    # -- client-facing API ---------------------------------------------------
    def wait_for_push(self, physical_page: int) -> Event:
        """Event firing at the page's next push completion."""
        due = self.next_push_arrival(physical_page, self.sim.now)
        event = self.sim.event()
        self._push_waiters.setdefault((due, physical_page), []).append(event)
        self._signal_demand()
        return event

    def request_pull(self, physical_page: int) -> Event:
        """Queue a pull; the event fires when the server airs the page."""
        event = self.sim.event()
        self._pull_queue.append((physical_page, event))
        self.queue_stat.record(self.sim.now, len(self._pull_queue))
        self._signal_demand()
        return event

    @property
    def pull_queue_length(self) -> int:
        """Outstanding pull requests."""
        return len(self._pull_queue)

    # -- server-facing API -----------------------------------------------------
    def has_demand(self) -> bool:
        """True while any waiter or queued pull needs service."""
        return bool(self._push_waiters) or bool(self._pull_queue)

    def next_interesting_time(self, now: float) -> Optional[float]:
        """Earliest instant at which a delivery matters."""
        candidates = []
        if self._push_waiters:
            candidates.append(min(due for due, _page in self._push_waiters))
        if self._pull_queue:
            candidates.append(self.next_pull_slot_completion(now, 0))
        return min(candidates) if candidates else None

    def deliver_at(self, now: float) -> None:
        """Fire whatever completes at instant ``now``."""
        k = self.pull_spacing
        is_pull_slot = abs(now / k - round(now / k)) < 1e-9 and now > 0
        if is_pull_slot and self._pull_queue:
            page, event = self._pull_queue.popleft()
            self.queue_stat.record(now, len(self._pull_queue))
            self.pull_slots_used += 1
            event.succeed(now)
            # A pulled page is on the air: opportunistically satisfy any
            # push waiters for the same page (they would only have
            # waited longer).
            for (due, waited_page) in list(self._push_waiters):
                if waited_page == page:
                    for waiter in self._push_waiters.pop((due, waited_page)):
                        waiter.succeed(now)
        # Push deliveries at this instant.
        for key in [key for key in self._push_waiters if key[0] == now]:
            _due, _page = key
            for waiter in self._push_waiters.pop(key):
                waiter.succeed(now)

    def demand_event(self) -> Event:
        """Event the server parks on while idle."""
        if self._demand_event is None or self._demand_event.triggered:
            self._demand_event = self.sim.event()
        return self._demand_event

    def _signal_demand(self) -> None:
        if self._demand_event is not None and not self._demand_event.triggered:
            self._demand_event.succeed()


@dataclass
class ReferenceHybridReport:
    """Measurements from one hybrid client."""

    response: RunningStats = field(default_factory=RunningStats)
    counters: CacheCounters = field(default_factory=CacheCounters)
    pulls_sent: int = 0
    pulls_won: int = 0  # miss resolved by the pulled copy, not the push
    warmup_requests: int = 0

    @property
    def mean_response_time(self) -> float:
        """Mean measured response time in broadcast units."""
        return self.response.mean


class ReferenceHybridClient:
    """A cache-equipped client with an optional upstream pull path."""

    def __init__(
        self,
        sim: Simulator,
        channel: ReferenceHybridChannel,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        cache: CachePolicy,
        trace: RequestTrace,
        upstream: Resource,
        think_time: float = 2.0,
        pull_threshold: float = 0.0,
        upstream_latency: float = 1.0,
        warmup_requests: int = 0,
        name: str = "hybrid-client",
    ):
        if pull_threshold < 0:
            raise ConfigurationError(
                f"pull_threshold must be >= 0, got {pull_threshold}"
            )
        if upstream_latency < 0:
            raise ConfigurationError(
                f"upstream_latency must be >= 0, got {upstream_latency}"
            )
        self.sim = sim
        self.channel = channel
        self.mapping = mapping
        self.layout = layout
        self.cache = cache
        self.trace = trace
        self.upstream = upstream
        self.think_time = think_time
        self.pull_threshold = pull_threshold
        self.upstream_latency = upstream_latency
        self.warmup_requests = warmup_requests
        self.name = name
        self.report = ReferenceHybridReport()
        self.process: Process = sim.process(self._run())

    def _run(self):
        sim = self.sim
        channel = self.channel
        cache = self.cache
        report = self.report

        for index in range(len(self.trace)):
            page = self.trace[index]
            yield sim.timeout(self.think_time)
            measuring = index >= self.warmup_requests
            if not measuring:
                report.warmup_requests += 1

            if cache.lookup(page, sim.now):
                if measuring:
                    report.response.add(0.0)
                    report.counters.record_hit()
                continue

            physical = self.mapping.to_physical(page)
            issued = sim.now
            push_wait = channel.next_push_arrival(physical, sim.now) - sim.now

            if push_wait > self.pull_threshold and not math.isinf(
                self.pull_threshold
            ):
                delivery = yield from self._pull_race(physical)
                pulled = True
            else:
                yield channel.wait_for_push(physical)
                delivery = sim.now
                pulled = False

            wait = delivery - issued
            if page not in cache:
                cache.admit(page, sim.now)
            if measuring:
                report.response.add(wait)
                report.counters.record_miss(self.layout.disk_of_page(physical))
                if pulled:
                    report.pulls_won += 1

        return report

    def _pull_race(self, physical: int):
        """Send a pull upstream; resolve at the first delivery of the page."""
        sim = self.sim
        channel = self.channel
        report = self.report

        # The push path is armed immediately (the broadcast keeps going
        # while we fight for the upstream link).
        push_event = channel.wait_for_push(physical)

        # Acquire the low-bandwidth upstream and spend the send latency.
        grant = self.upstream.request()
        winner = yield AnyOf(sim, [push_event, grant])
        if push_event in winner and push_event.processed:
            # The push beat even our upstream access; abandon the pull.
            if grant.processed or not self.upstream.cancel(grant):
                self.upstream.release()
            return sim.now
        sent = sim.timeout(self.upstream_latency)
        winner = yield AnyOf(sim, [push_event, sent])
        self.upstream.release()
        if push_event in winner and push_event.processed:
            # The push completed while the pull was being sent.
            return sim.now
        report.pulls_sent += 1
        pull_event = channel.request_pull(physical)

        yield AnyOf(sim, [push_event, pull_event])
        return sim.now


@st.composite
def worlds(draw):
    """A small multidisk world and the hybrid knobs of the study."""
    sizes = tuple(draw(st.lists(
        st.integers(min_value=4, max_value=15), min_size=1, max_size=3
    )))
    region_size = draw(st.integers(min_value=1, max_value=4))
    regions = draw(st.integers(
        min_value=1, max_value=sum(sizes) // region_size
    ))
    config = ExperimentConfig(
        disk_sizes=sizes,
        delta=draw(st.integers(min_value=0, max_value=3)),
        access_range=regions * region_size,
        region_size=region_size,
        theta=draw(st.sampled_from((0.0, 0.95))),
        cache_size=draw(st.integers(min_value=1, max_value=6)),
        policy=draw(st.sampled_from(("LRU", "LIX"))),
        think_time=draw(st.sampled_from((0.5, 2.0))),
        warmup_requests=draw(st.integers(min_value=0, max_value=20)),
    )
    return dict(
        config=config,
        clients=draw(st.integers(min_value=1, max_value=6)),
        requests=draw(st.integers(min_value=1, max_value=60)),
        pull_threshold=draw(st.sampled_from((0.0, 5.0, 50.0, math.inf))),
        pull_spacing=draw(st.one_of(
            st.integers(min_value=2, max_value=5), st.just(1_000_000)
        )),
        capacity=draw(st.integers(min_value=1, max_value=2)),
        latency=draw(st.sampled_from((0.0, 1.0, 2.5))),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def run_world(world, channel_type, client_type):
    """Every client of ``world`` on one channel; reports, channel, clock."""
    config = world["config"]
    layout = config.build_layout()
    schedule = config.build_schedule(layout)
    sim = Simulator()
    channel = channel_type(sim, schedule, pull_spacing=world["pull_spacing"])
    BroadcastServer(sim, schedule, channel)
    upstream = Resource(sim, capacity=world["capacity"])
    streams = RandomStreams(world["seed"])
    distribution = config.build_distribution()
    mapping = LogicalPhysicalMapping(layout)
    clients = [
        client_type(
            sim=sim,
            channel=channel,
            mapping=mapping,
            layout=layout,
            cache=config.build_policy(schedule, mapping, distribution, layout),
            trace=generate_trace(
                distribution, world["requests"],
                streams.stream(f"requests-{index}"),
            ),
            upstream=upstream,
            think_time=config.think_time,
            pull_threshold=world["pull_threshold"],
            upstream_latency=world["latency"],
            warmup_requests=config.warmup_requests,
            name=f"hybrid-{index}",
        )
        for index in range(world["clients"])
    ]
    for client in clients:
        sim.run_until_event(client.process)
    return [client.report for client in clients], channel, sim.now


def welford(stats: RunningStats):
    return (stats.count, stats._mean, stats._m2, stats.minimum, stats.maximum)


def time_weighted(stat: TimeWeightedStat):
    return tuple(getattr(stat, name) for name in TimeWeightedStat.__slots__)


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_subclasses_match_the_reference_classes(world):
    ours, channel, clock = run_world(world, HybridChannel, HybridClient)
    theirs, reference_channel, reference_clock = run_world(
        world, ReferenceHybridChannel, ReferenceHybridClient
    )
    assert clock == reference_clock
    assert channel.pull_slots_used == reference_channel.pull_slots_used
    assert time_weighted(channel.queue_stat) == time_weighted(
        reference_channel.queue_stat
    )
    for report, reference in zip(ours, theirs):
        assert welford(report.response) == welford(reference.response)
        assert report.counters == reference.counters
        assert report.pulls_sent == reference.pulls_sent
        assert report.warmup_requests == reference.warmup_requests
        assert report.pulls_won <= reference.pulls_won
