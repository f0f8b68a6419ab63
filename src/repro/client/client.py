"""The demand-driven client process (§4.1 client execution model).

"The client runs a continuous loop that randomly requests a page
according to a specified distribution.  If the requested page is not
cache-resident, then the client waits for the page to arrive on the
broadcast and then brings the requested page into its cache. ... Once
the requested page is cache resident, the client waits ThinkTime
broadcast units of time and then makes the next request."

The process version consumes a pre-drawn :class:`RequestTrace` so that
runs are comparable request-by-request with the fast engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.cache.base import CachePolicy
from repro.core.disks import DiskLayout
from repro.experiments.engine import EngineOutcome
from repro.server.channel import BroadcastChannel
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class ChannelTuner:
    """Single-frequency tuner over the channels of a multi-channel program.

    A client listens to exactly one channel at a time.  When a miss
    targets a page on a different channel, the tuner switches and the
    earliest usable completion moves ``retune_cost`` broadcast units
    into the future (the channel's ``wait_for(..., not_before=...)``).
    Each client owns its own tuner: the tuned-channel state is
    per-client, even when clients share the physical channels.
    """

    channels: Sequence[BroadcastChannel]
    channel_of: Mapping[int, int]
    retune_cost: float = 1.0
    #: Currently tuned channel; every client starts on channel 0.
    current: int = 0
    #: Lifetime channel switches (warm-up included).
    retunes: int = 0


class Client:
    """A cache-equipped client running on the simulation kernel."""

    #: The outcome the request loop fills; a subclass that books more
    #: per miss names an ``EngineOutcome`` subclass here.
    report_type = EngineOutcome

    def __init__(
        self,
        sim: Simulator,
        channel: BroadcastChannel,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        cache: CachePolicy,
        trace: RequestTrace,
        think_time: float,
        warmup_requests: Optional[int] = None,
        collect_responses: bool = False,
        extra_warmup: int = 0,
        name: str = "client",
        tracer=None,
        tuner: Optional[ChannelTuner] = None,
    ):
        self.sim = sim
        self.channel = channel
        #: Optional :class:`ChannelTuner` for multi-channel programs;
        #: ``None`` keeps the single-channel miss path byte-identical.
        self.tuner = tuner
        self.mapping = mapping
        self.layout = layout
        self.cache = cache
        self.trace = trace
        self.think_time = think_time
        self.warmup_requests = warmup_requests
        self.extra_warmup = extra_warmup
        self.name = name
        #: Optional :class:`repro.obs.trace.Tracer` emitting the
        #: ``client.*`` and ``cache.*`` records, each labelled with the
        #: client's ``name``; ``None`` costs one branch per request.
        self.tracer = tracer
        self.report = self.report_type(
            samples=[] if collect_responses else None
        )
        self.process: Process = sim.process(self._run())

    def _run(self):
        sim = self.sim
        cache = self.cache
        report = self.report
        warming = True
        extra_left = self.extra_warmup

        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None

        for index in range(len(self.trace)):
            page = self.trace[index]
            yield sim.timeout(self.think_time)

            if warming:
                if self.warmup_requests is not None:
                    warming = report.warmup_requests < self.warmup_requests
                elif cache.is_full:
                    if extra_left <= 0:
                        warming = False
                    else:
                        extra_left -= 1
            measuring = not warming
            if warming:
                report.warmup_requests += 1
            if tracer is not None:
                tracer.emit(
                    "client.request", sim.now, page=int(page),
                    client=self.name,
                    phase="measured" if measuring else "warmup",
                )

            if cache.lookup(page, sim.now):
                if tracer is not None:
                    tracer.emit("cache.lookup", sim.now, page=int(page),
                                hit=True, client=self.name)
                    tracer.emit("client.hit", sim.now, page=int(page),
                                client=self.name)
                if measuring:
                    report.response.add(0.0)
                    report.counters.record_hit()
                    if report.samples is not None:
                        report.samples.append(0.0)
                continue

            physical = self.mapping.to_physical(page)
            issued = sim.now
            if tracer is not None:
                tracer.emit("cache.lookup", issued, page=int(page),
                            hit=False, client=self.name)
                tracer.emit("client.miss", issued, page=int(page),
                            physical=int(physical), client=self.name)
            yield from self._fetch(page, physical, measuring, tracer)
            wait = sim.now - issued
            victim = cache.admit(page, sim.now)
            if tracer is not None:
                tracer.emit("cache.admit", sim.now, page=int(page),
                            victim=None if victim is None else int(victim),
                            client=self.name)
                if victim is not None and victim != page:
                    tracer.emit("cache.evict", sim.now, page=int(victim),
                                admitted=int(page), client=self.name)
                tracer.emit("client.wait", sim.now, page=int(page),
                            physical=int(physical), wait=wait,
                            client=self.name)
            if measuring:
                report.response.add(wait)
                report.counters.record_miss(self.layout.disk_of_page(physical))
                if report.samples is not None:
                    report.samples.append(wait)

        report.final_time = sim.now
        return report

    def _fetch(self, page, physical: int, measuring: bool, tracer):
        """The miss step: wait until ``physical`` is delivered.

        The request loop delegates to it (``yield from``) right after
        the miss is issued and reads the delivery instant from the
        clock when it returns.  Only the wait lives here, so a client
        that fetches differently (the hybrid push/pull client) overrides
        this step and keeps the loop, the warm-up rule and the fold.
        """
        tuner = self.tuner
        if tuner is None:
            yield self.channel.wait_for(physical)
            return
        issued = self.sim.now
        target = tuner.channel_of[physical]
        if target != tuner.current:
            tuner.retunes += 1
            if measuring:
                self.report.retunes += 1
            if tracer is not None:
                tracer.emit(
                    "client.retune", issued, page=int(page),
                    physical=int(physical),
                    from_channel=tuner.current, to_channel=target,
                    client=self.name,
                )
            tuner.current = target
            yield tuner.channels[target].wait_for(
                physical, not_before=issued + tuner.retune_cost
            )
        else:
            yield tuner.channels[target].wait_for(physical)
