"""The hybrid push/pull population study.

Builds a shared hybrid channel and N identical clients and measures the
population-scaling behaviour: pure push is population-independent, pull
helps dramatically at small populations and saturates at large ones.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.channels import add_in_order
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.hybrid.channel import HybridChannel
from repro.hybrid.client import HybridClient, HybridReport
from repro.server.server import BroadcastServer
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import generate_trace


def run_hybrid_population(
    num_clients: int,
    pull_threshold: float,
    *, disk_sizes: Sequence[int] = (50, 200, 250),
    delta: int = 3,
    pull_spacing: int = 4,
    access_range: int = 100,
    region_size: int = 10,
    theta: float = 0.95,
    cache_size: int = 10,
    requests_per_client: int = 300,
    think_time: float = 2.0,
    upstream_capacity: int = 1,
    upstream_latency: float = 1.0,
    seed: int = 42,
) -> List[HybridReport]:
    """Run ``num_clients`` identical hybrid clients on one channel."""
    if num_clients < 1:
        raise ConfigurationError(f"num_clients must be >= 1, got {num_clients}")
    warmup = max(cache_size, requests_per_client // 10)
    config = ExperimentConfig(
        disk_sizes=tuple(disk_sizes), delta=delta, access_range=access_range,
        region_size=region_size, theta=theta, cache_size=cache_size,
        policy="LIX", think_time=think_time, warmup_requests=warmup,
    )
    layout = config.build_layout()
    schedule = config.build_schedule(layout)
    sim = Simulator()
    channel = HybridChannel(sim, schedule, pull_spacing=pull_spacing)
    BroadcastServer(sim, schedule, channel)
    upstream = Resource(sim, capacity=upstream_capacity)
    streams = RandomStreams(seed)
    distribution = config.build_distribution()
    mapping = LogicalPhysicalMapping(layout)

    clients = []
    for index in range(num_clients):
        clients.append(
            HybridClient(
                sim=sim,
                channel=channel,
                mapping=mapping,
                layout=layout,
                cache=config.build_policy(
                    schedule, mapping, distribution, layout
                ),
                trace=generate_trace(
                    distribution,
                    requests_per_client,
                    streams.stream(f"requests-{index}"),
                ),
                upstream=upstream,
                think_time=think_time,
                pull_threshold=pull_threshold,
                upstream_latency=upstream_latency,
                warmup_requests=warmup,
                name=f"hybrid-{index}",
            )
        )

    for client in clients:
        sim.run_until_event(client.process)
    return [client.report for client in clients]


def hybrid_population_study(
    *, populations: Sequence[int] = (1, 2, 4, 8, 16),
    pull_threshold: float = 50.0,
    seed: int = 42,
    **scenario,
):
    """Mean response with pulls vs mute clients, across population sizes.

    Returns a :class:`~repro.experiments.figures.FigureData` with the
    push-only baseline, the hybrid response, and the pulls sent per
    client — the series behind ``benchmarks/bench_hybrid.py``.
    """
    from repro.experiments.figures import FigureData

    dedicated_push: List[float] = []
    push_only: List[float] = []
    hybrid: List[float] = []
    pulls_per_client: List[float] = []
    for population in populations:
        # A dedicated push channel: no slots reserved for pulls at all
        # (a huge pull spacing makes the reservation vanish).
        pure = run_hybrid_population(
            population, pull_threshold=math.inf, seed=seed,
            pull_spacing=1_000_000,
            **{k: v for k, v in scenario.items() if k != "pull_spacing"},
        )
        dedicated_push.append(
            add_in_order([report.mean_response_time for report in pure])
            / population
        )
        mute = run_hybrid_population(
            population, pull_threshold=math.inf, seed=seed, **scenario
        )
        push_only.append(
            add_in_order([report.mean_response_time for report in mute])
            / population
        )
        talk = run_hybrid_population(
            population, pull_threshold=pull_threshold, seed=seed, **scenario
        )
        hybrid.append(
            add_in_order([report.mean_response_time for report in talk])
            / population
        )
        pulls_per_client.append(
            sum(report.pulls_sent for report in talk) / population
        )

    data = FigureData(
        figure="Extension: Hybrid push/pull",
        title=(
            "Population scaling with a low-bandwidth upstream "
            f"(pull threshold {pull_threshold:.0f} bu)"
        ),
        x_label="clients",
        x_values=list(populations),
    )
    data.add_series("dedicated push", dedicated_push)
    data.add_series("push only", push_only)
    data.add_series("push + pull", hybrid)
    data.add_series("pulls/client", pulls_per_client)
    return data
