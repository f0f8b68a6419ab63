"""The hybrid client: pull when the push wait is too long.

On a cache miss the client computes the page's next push arrival.  If
the wait exceeds ``pull_threshold`` (in broadcast units) it sends a pull
request over its upstream link — a shared low-bandwidth
:class:`~repro.sim.resources.Resource` with a per-request send latency —
and then takes whichever delivery happens first (the pulled copy airs on
the shared channel, so it may even satisfy other clients' push waits).

``pull_threshold = inf`` degenerates to the paper's mute client;
``pull_threshold = 0`` pulls on every miss (pure on-demand behaviour,
bounded by the upstream and pull-slot capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from repro.cache.base import CacheCounters, CachePolicy
from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError
from repro.hybrid.channel import HybridChannel
from repro.sim.kernel import Simulator
from repro.sim.process import AnyOf, Process
from repro.sim.resources import Resource
from repro.sim.stats import RunningStats
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class HybridReport:
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


class HybridClient:
    """A cache-equipped client with an optional upstream pull path."""

    def __init__(
        self,
        sim: Simulator,
        channel: HybridChannel,
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
        self.report = HybridReport()
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
        yield sim.timeout(self.upstream_latency)
        self.upstream.release()
        report.pulls_sent += 1
        pull_event = channel.request_pull(physical)

        yield AnyOf(sim, [push_event, pull_event])
        return sim.now
