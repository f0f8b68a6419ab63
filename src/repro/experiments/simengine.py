"""The process-oriented engine: the faithful CSIM-style simulation.

Builds the full cast — a :class:`~repro.sim.kernel.Simulator`, a
:class:`~repro.server.channel.BroadcastChannel`, a
:class:`~repro.server.server.BroadcastServer`, and one or more
:class:`~repro.client.client.Client` processes — and runs them to
completion.  It produces exactly the same per-request response times as
the fast engine for a shared trace (asserted by the integration tests);
its added value is generality: multiple concurrent clients with
different caches and workloads sharing one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cache.base import CachePolicy
from repro.client.client import ChannelTuner, Client
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.errors import SimulationError
from repro.experiments.engine import EngineOutcome
from repro.server.channel import BroadcastChannel
from repro.server.server import BroadcastServer
from repro.sim.kernel import Simulator
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class ClientSpec:
    """One client's wiring for a multi-client simulation."""

    mapping: LogicalPhysicalMapping
    cache: CachePolicy
    trace: RequestTrace
    think_time: float = 2.0
    warmup_requests: Optional[int] = None
    collect_responses: bool = False
    extra_warmup: int = 0
    name: str = "client"


class ProcessEngine:
    """Run one or many clients against a shared broadcast."""

    def __init__(self, schedule: BroadcastSchedule, layout: DiskLayout,
                 tracer=None, profile=None, *, retune_cost: float = 1.0):
        self.schedule = schedule
        self.layout = layout
        self.sim = Simulator()
        #: Set for multi-channel programs: one physical
        #: :class:`BroadcastChannel` + :class:`BroadcastServer` pair per
        #: program row, all on the shared simulator; clients then attach
        #: through per-client :class:`ChannelTuner` state.
        self.program = schedule if isinstance(schedule, BroadcastProgram) else None
        self.retune_cost = retune_cost
        if self.program is None:
            self.channel = BroadcastChannel(self.sim, schedule)
            self.server = BroadcastServer(self.sim, schedule, self.channel)
            self.channels = [self.channel]
            self.servers = [self.server]
        else:
            self.channels = []
            self.servers = []
            for index, row in enumerate(self.program.channels):
                channel = BroadcastChannel(self.sim, row)
                channel.channel_index = index
                self.channels.append(channel)
                self.servers.append(BroadcastServer(self.sim, row, channel))
            self.channel = self.channels[0]
            self.server = self.servers[0]
        self.clients: List[Client] = []
        #: Optional :class:`repro.obs.trace.Tracer` shared by the kernel,
        #: the channels, and every attached client.
        self.tracer = tracer
        if tracer is not None:
            self.sim.trace = tracer
            for channel in self.channels:
                channel.tracer = tracer
        #: Optional :class:`repro.obs.profile.Profiler`; :meth:`run`
        #: reports kernel event counts and the event-heap high-water
        #: mark into it.
        self.profile = profile

    def add_client(self, spec: ClientSpec) -> Client:
        """Attach a client process built from ``spec``."""
        tuner = None
        if self.program is not None:
            tuner = ChannelTuner(
                channels=self.channels,
                channel_of=self.program.channel_map(),
                retune_cost=self.retune_cost,
            )
        client = Client(
            sim=self.sim,
            channel=self.channel,
            mapping=spec.mapping,
            layout=self.layout,
            cache=spec.cache,
            trace=spec.trace,
            think_time=spec.think_time,
            warmup_requests=spec.warmup_requests,
            collect_responses=spec.collect_responses,
            extra_warmup=spec.extra_warmup,
            name=spec.name,
            tracer=self.tracer,
            tuner=tuner,
        )
        self.clients.append(client)
        return client

    def run(self, time_limit: Optional[float] = None) -> List[EngineOutcome]:
        """Run every client to the end of its trace; return their outcomes."""
        if not self.clients:
            raise SimulationError("no clients attached to the process engine")
        pending = [client.process for client in self.clients]
        events_before = self.sim.events_processed
        for process in pending:
            self.sim.run_until_event(process, limit=time_limit)
        profile = self.profile
        if profile is not None and profile.enabled:
            profile.count("engine.process.events",
                          self.sim.events_processed - events_before)
            profile.count("engine.process.clients", len(self.clients))
            profile.peak("engine.process.heap_peak", self.sim.heap_peak)
        return [client.report for client in self.clients]


def run_single_client(
    schedule: BroadcastSchedule,
    layout: DiskLayout,
    mapping: LogicalPhysicalMapping,
    cache: CachePolicy,
    trace: RequestTrace,
    *, think_time: float = 2.0,
    warmup_requests: Optional[int] = None,
    collect_responses: bool = False,
    extra_warmup: int = 0,
    tracer=None,
    profile=None,
    retune_cost: float = 1.0,
) -> EngineOutcome:
    """Convenience wrapper: one client, one broadcast, run to completion."""
    engine = ProcessEngine(schedule, layout, tracer=tracer, profile=profile,
                           retune_cost=retune_cost)
    engine.add_client(
        ClientSpec(
            mapping=mapping,
            cache=cache,
            trace=trace,
            think_time=think_time,
            warmup_requests=warmup_requests,
            collect_responses=collect_responses,
            extra_warmup=extra_warmup,
        )
    )
    return engine.run()[0]


def run_clients(
    schedule: BroadcastSchedule,
    layout: DiskLayout,
    specs: Sequence[ClientSpec],
    *, time_limit: Optional[float] = None,
    tracer=None,
) -> List[EngineOutcome]:
    """Run several clients sharing one broadcast; outcomes in spec order."""
    engine = ProcessEngine(schedule, layout, tracer=tracer)
    for spec in specs:
        engine.add_client(spec)
    return engine.run(time_limit=time_limit)
