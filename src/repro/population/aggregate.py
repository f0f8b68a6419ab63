"""Mergeable fleet aggregates: exact where possible, bounded where not.

A population run produces one :class:`~repro.exec.run.ExperimentResult`
per client; what the caller wants is fleet-level shape: the mean of the
per-client means, their spread, tail percentiles, and a fairness
number.  Everything here is *mergeable* — ``merge(a, b)`` of two
partial aggregates equals the aggregate of the concatenated inputs —
so shards folded in any grouping give the same answer:

* :class:`repro.sim.stats.RunningStats` carries mean/variance/extrema
  exactly (parallel Welford merge);
* :class:`QuantileSketch` carries p50/p90/p99 with bounded relative
  error (geometric log-buckets; integer counts merge by addition, so
  the merge is exact and order-independent);
* :class:`FairnessAccumulator` carries Jain's fairness index exactly
  (it only needs ``n``, ``Σx`` and ``Σx²``).

``run_population`` folds results in plan order, so the aggregate is
byte-identical no matter how many workers produced the results.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.stats import RunningStats

#: Geometric bucket growth factor.  Relative quantile error is bounded
#: by ``(gamma - 1)`` ≈ 2%, comfortably inside the sampling noise of a
#: stochastic fleet.
DEFAULT_GAMMA = 1.02


class QuantileSketch:
    """Streaming quantiles over positive values via geometric buckets.

    Value ``v > 0`` lands in bucket ``ceil(log(v) / log(gamma))``; a
    quantile query walks the buckets in index order and reports the
    boundary value ``gamma**index`` of the bucket holding the target
    rank.  Counts are integers, so merging sketches (bucket-wise
    addition) is exact and commutative — the sketch state never depends
    on arrival order or sharding.
    """

    __slots__ = ("gamma", "_log_gamma", "_buckets", "zero_count", "count")

    def __init__(self, gamma: float = DEFAULT_GAMMA):
        if gamma <= 1.0:
            raise ConfigurationError(f"gamma must be > 1, got {gamma}")
        self.gamma = float(gamma)
        self._log_gamma = math.log(self.gamma)
        self._buckets: Dict[int, int] = {}
        self.zero_count = 0  # values <= 0 (response times are >= 0)
        self.count = 0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        if value <= 0.0:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """A new sketch equal to this one fed with both inputs."""
        if other.gamma != self.gamma:
            raise ConfigurationError(
                f"cannot merge sketches with gamma {self.gamma} and "
                f"{other.gamma}"
            )
        merged = QuantileSketch(self.gamma)
        merged.count = self.count + other.count
        merged.zero_count = self.zero_count + other.zero_count
        merged._buckets = dict(self._buckets)
        for index, bucket_count in other._buckets.items():
            merged._buckets[index] = merged._buckets.get(index, 0) + bucket_count
        return merged

    def quantile(self, fraction: float) -> float:
        """The value at rank ``ceil(fraction * count)`` (0.0 if empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"quantile fraction must be in [0, 1], got {fraction}"
            )
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(fraction * self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self.gamma ** index
        return self.gamma ** max(self._buckets)  # pragma: no cover - guard

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QuantileSketch n={self.count} "
            f"buckets={len(self._buckets)} gamma={self.gamma}>"
        )


class FairnessAccumulator:
    """Jain's fairness index over per-client values, mergeably.

    ``jain = (Σx)² / (n · Σx²)`` — 1.0 when every client sees the same
    value, ``1/n`` when one client gets everything.  The three running
    sums are all the state needed, so the merge is exact.
    """

    __slots__ = ("count", "total", "total_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, value: float) -> None:
        """Record one per-client value."""
        self.count += 1
        self.total += value
        self.total_sq += value * value

    def merge(self, other: "FairnessAccumulator") -> "FairnessAccumulator":
        """A new accumulator equal to this one fed with both inputs."""
        merged = FairnessAccumulator()
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.total_sq = self.total_sq + other.total_sq
        return merged

    @property
    def jain(self) -> float:
        """The fairness index (1.0 for an empty or perfectly-even fleet)."""
        if self.count == 0 or self.total_sq == 0.0:
            return 1.0
        return (self.total * self.total) / (self.count * self.total_sq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FairnessAccumulator n={self.count} jain={self.jain:.3f}>"


class PopulationAggregate:
    """Fleet-level rollup of per-client experiment results.

    Tracks the distribution of per-client *mean response times* (exact
    moments, sketched percentiles, fairness) plus fleet totals (request
    volume, hit rate weighted by measured requests, wall time).  One
    aggregate per segment and one overall; both fold the same way.
    """

    __slots__ = ("response_means", "percentiles", "fairness", "clients",
                 "measured_requests", "warmup_requests", "_hit_weight",
                 "total_wall_seconds")

    def __init__(self):
        self.response_means = RunningStats()
        self.percentiles = QuantileSketch()
        self.fairness = FairnessAccumulator()
        self.clients = 0
        self.measured_requests = 0
        self.warmup_requests = 0
        self._hit_weight = 0.0  # Σ hit_rate · measured_requests
        self.total_wall_seconds = 0.0

    def add_result(self, result) -> None:
        """Fold one client's :class:`ExperimentResult` into the rollup."""
        mean = result.mean_response_time
        self.response_means.add(mean)
        self.percentiles.add(mean)
        self.fairness.add(mean)
        self.clients += 1
        self.measured_requests += result.measured_requests
        self.warmup_requests += result.warmup_requests
        self._hit_weight += result.hit_rate * result.measured_requests
        self.total_wall_seconds += result.wall_seconds

    def add_mean_block(self, means, hit_rates, measured_each: int,
                       warmup_each: int) -> None:
        """Fold a whole block of per-client summaries at once.

        No fleet path calls this: fleets fold client by client through
        :func:`fold_results`, like ``run_population``.  It stays because
        the end-to-end benchmark (``benchmarks/e2e/layers.py``) resolves
        it by name as an ``aggregate`` layer entry point.  Bucket counts
        and fairness sums are exactly what sequential adds would
        produce; the moment accumulator uses the parallel Welford
        :meth:`merge` (same contract, different rounding than a
        sequential fold).  ``measured_each``/``warmup_each`` are
        per-client counts, uniform across the block.
        """
        means = np.asarray(means, dtype=np.float64)
        clients = len(means)
        if clients == 0:
            return
        block = RunningStats()
        block.count = clients
        block._mean = float(means.mean())
        block._m2 = float(np.square(means - block._mean).sum())
        block.minimum = float(means.min())
        block.maximum = float(means.max())
        self.response_means = self.response_means.merge(block)

        sketch = self.percentiles
        positive = means > 0.0
        sketch.count += clients
        sketch.zero_count += int(clients - np.count_nonzero(positive))
        if positive.any():
            indices = np.ceil(
                np.log(means[positive]) / sketch._log_gamma
            ).astype(np.int64)
            buckets = sketch._buckets
            for index, bucket_count in zip(
                *(column.tolist()
                  for column in np.unique(indices, return_counts=True))
            ):
                buckets[index] = buckets.get(index, 0) + bucket_count

        self.fairness.count += clients
        self.fairness.total += float(means.sum())
        self.fairness.total_sq += float(np.square(means).sum())
        self.clients += clients
        self.measured_requests += int(measured_each) * clients
        self.warmup_requests += int(warmup_each) * clients
        self._hit_weight += float(
            np.asarray(hit_rates, dtype=np.float64).sum()
        ) * measured_each

    def merge(self, other: "PopulationAggregate") -> "PopulationAggregate":
        """A new aggregate equal to this one fed with both inputs."""
        merged = PopulationAggregate()
        merged.response_means = self.response_means.merge(other.response_means)
        merged.percentiles = self.percentiles.merge(other.percentiles)
        merged.fairness = self.fairness.merge(other.fairness)
        merged.clients = self.clients + other.clients
        merged.measured_requests = (
            self.measured_requests + other.measured_requests
        )
        merged.warmup_requests = self.warmup_requests + other.warmup_requests
        merged._hit_weight = self._hit_weight + other._hit_weight
        merged.total_wall_seconds = (
            self.total_wall_seconds + other.total_wall_seconds
        )
        return merged

    @property
    def hit_rate(self) -> float:
        """Fleet hit rate, weighted by each client's measured requests."""
        if self.measured_requests == 0:
            return 0.0
        return self._hit_weight / self.measured_requests

    def snapshot(self) -> Dict:
        """A JSON-ready summary (manifest block and CLI table substrate).

        Wall time is keyed ``total_wall_seconds`` so
        :func:`repro.obs.manifest.strip_wall_clock` removes it when two
        runs are compared for determinism.
        """
        stats = self.response_means
        return {
            "clients": self.clients,
            "measured_requests": self.measured_requests,
            "warmup_requests": self.warmup_requests,
            "hit_rate": self.hit_rate,
            "response_mean": {
                "mean": stats.mean,
                "stddev": stats.stddev,
                "stderr": stats.stderr,
                "min": stats.minimum if stats.count else 0.0,
                "max": stats.maximum if stats.count else 0.0,
            },
            "percentiles": {
                "p50": self.percentiles.quantile(0.50),
                "p90": self.percentiles.quantile(0.90),
                "p99": self.percentiles.quantile(0.99),
            },
            "fairness": self.fairness.jain,
            "total_wall_seconds": self.total_wall_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PopulationAggregate clients={self.clients} "
            f"mean={self.response_means.mean:.1f}>"
        )


def fold_results(
    results,
    segment_ranges,
) -> "tuple[PopulationAggregate, Dict[str, PopulationAggregate]]":
    """Fold per-client results into overall and per-segment aggregates.

    ``segment_ranges`` is ``PopulationSpec.segment_ranges()`` output;
    results are consumed positionally (plan order), so the fold is a
    pure function of the result list.
    """
    overall = PopulationAggregate()
    per_segment: Dict[str, PopulationAggregate] = {}
    for segment, indices in segment_ranges:
        aggregate = PopulationAggregate()
        for index in indices:
            aggregate.add_result(results[index])
            overall.add_result(results[index])
        per_segment[segment.name] = aggregate
    return overall, per_segment
