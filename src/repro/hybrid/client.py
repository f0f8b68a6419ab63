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
from dataclasses import dataclass

from repro.cache.base import CachePolicy
from repro.client.client import Client
from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError
from repro.experiments.engine import EngineOutcome
from repro.hybrid.channel import HybridChannel
from repro.sim.kernel import Simulator
from repro.sim.process import AnyOf
from repro.sim.resources import Resource
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class HybridReport(EngineOutcome):
    """Measurements from one hybrid client."""

    pulls_sent: int = 0
    pulls_won: int = 0  # measured miss delivered by the client's own pull


class HybridClient(Client):
    """A cache-equipped client with an optional upstream pull path.

    The process engine's :class:`~repro.client.client.Client` request
    loop with its miss step replaced by the push-wait-or-pull race.
    """

    report_type = HybridReport

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
        self.upstream = upstream
        self.pull_threshold = pull_threshold
        self.upstream_latency = upstream_latency
        super().__init__(
            sim, channel, mapping, layout, cache, trace, think_time,
            warmup_requests=warmup_requests, name=name,
        )

    def _fetch(self, page, physical: int, measuring: bool, tracer):
        """Wait for the push, or race a pull when the wait is too long."""
        sim = self.sim
        threshold = self.pull_threshold
        push_wait = self.channel.next_arrival(physical, sim.now) - sim.now
        if push_wait > threshold and not math.isinf(threshold):
            pulled = yield from self._pull_race(physical)
            if pulled and measuring:
                self.report.pulls_won += 1
        else:
            yield self.channel.wait_for(physical)

    def _pull_race(self, physical: int):
        """Send a pull upstream; resolve at the first delivery of the page.

        Returns True when the client's own pull delivered the page: a
        push completion, or another client's pull of the same page,
        may come first.
        """
        sim = self.sim
        channel = self.channel

        # The push path is armed immediately (the broadcast keeps going
        # while we fight for the upstream link).
        push_event = channel.wait_for(physical)

        # Acquire the low-bandwidth upstream and spend the send latency.
        grant = self.upstream.request()
        winner = yield AnyOf(sim, [push_event, grant])
        if push_event in winner and push_event.processed:
            # The push beat even our upstream access; abandon the pull.
            if grant.processed or not self.upstream.cancel(grant):
                self.upstream.release()
            return False
        sent = sim.timeout(self.upstream_latency)
        winner = yield AnyOf(sim, [push_event, sent])
        self.upstream.release()
        if push_event in winner and push_event.processed:
            # The push completed during the send: no pull is queued.
            return False
        self.report.pulls_sent += 1
        pull_event = channel.request_pull(physical)

        yield AnyOf(sim, [push_event, pull_event])
        return pull_event.triggered
