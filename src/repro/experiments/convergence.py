"""Run-length control: measure until the response series is steady.

The paper ran "15,000 or more client page requests (until steady
state)".  :func:`run_until_converged` implements the *or more*: it keeps
extending the measured phase in chunks until recent chunk means
stabilise (the two halves of a sliding window of chunk means agree
within a tolerance), or a request cap is hit.

Useful when the fixed ``steady_state_factor`` heuristic is either
wasteful (fast-mixing configurations) or insufficient (slow estimators
at extreme parameters); the diagnostics say which happened.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.exec.run import _warmup_trace_allowance
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import FastEngine
from repro.sim.stats import WindowedSeries
from repro.workload.trace import generate_trace


@dataclass
class ConvergedResult:
    """Outcome of a convergence-controlled run."""

    mean_response_time: float
    requests_measured: int
    converged: bool
    chunks_run: int
    window_mean: float

    def summary(self) -> str:
        """One-line report."""
        status = "converged" if self.converged else "CAP HIT (not converged)"
        return (
            f"{status}: mean={self.mean_response_time:.1f} bu over "
            f"{self.requests_measured} requests "
            f"(recent-window mean {self.window_mean:.1f})"
        )


def run_until_converged(
    config: ExperimentConfig,
    *, chunk: int = 5_000,
    window_chunks: int = 6,
    rtol: float = 0.03,
    max_requests: int = 200_000,
) -> ConvergedResult:
    """Run ``config`` in chunks until chunk-mean response stabilises.

    The cache warms exactly as in
    :func:`~repro.experiments.runner.run_experiment` (fill + the
    config's steady-state shake-out); measurement then proceeds chunk by
    chunk, and after each chunk the sliding window of the last
    ``window_chunks`` chunk means is tested: its two halves must agree
    within ``rtol``.

    A config with ``drift_rotations > 0`` raises
    :class:`~repro.errors.ConfigurationError`: a rotating hotspot has no
    steady state, and chunked draws cannot follow the drift's horizon.
    """
    if config.drift_rotations > 0:
        raise ConfigurationError(
            f"run_until_converged needs drift_rotations == 0, got "
            f"{config.drift_rotations}: a rotating hotspot has no steady "
            "state, and chunked draws cannot follow the drift's horizon"
        )
    if chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
    if window_chunks < 2:
        raise ConfigurationError(
            f"window_chunks must be >= 2, got {window_chunks}"
        )
    if max_requests < chunk:
        raise ConfigurationError("max_requests must be at least one chunk")

    layout = config.build_layout()
    schedule = config.build_schedule(layout)
    streams = config.build_streams()
    mapping = config.build_mapping(layout, streams)
    distribution = config.build_distribution()
    cache = config.build_policy(schedule, mapping, distribution, layout)
    engine = FastEngine(
        schedule=schedule,
        mapping=mapping,
        layout=layout,
        cache=cache,
        think_time=config.think_time,
        retune_cost=config.retune_cost,
    )
    request_stream = streams.stream("requests")

    # Warm-up: a plan's own rule and trace allowance on a throwaway
    # trace, so the measured chunks start at steady state.
    warm_allowance = _warmup_trace_allowance(config)
    if config.cache_size > 1 and warm_allowance > 0:
        warm_trace = generate_trace(distribution, warm_allowance,
                                    request_stream)
        engine.run_trace(
            warm_trace,
            warmup_requests=config.warmup_requests,
            extra_warmup=config.extra_warmup,
        )

    series = WindowedSeries(window=window_chunks)
    weighted_sum = 0.0
    measured = 0
    chunks = 0
    converged = False
    while measured < max_requests:
        trace = generate_trace(distribution, chunk, request_stream)
        outcome = engine.run_trace(trace, warmup_requests=0)
        chunks += 1
        weighted_sum += outcome.response.mean * outcome.response.count
        measured += outcome.response.count
        series.add(outcome.response.mean)
        if series.is_converged(rtol=rtol):
            converged = True
            break

    tail = series.tail
    return ConvergedResult(
        mean_response_time=weighted_sum / measured if measured else 0.0,
        requests_measured=measured,
        converged=converged,
        chunks_run=chunks,
        window_mean=sum(tail) / len(tail) if tail else 0.0,
    )
