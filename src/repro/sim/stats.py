"""Online statistics used by the experiment harness.

The paper reports steady-state client response time: measurement begins
only after the cache is full, then runs for 15,000+ requests.  The
accumulators here support that protocol directly:

* :class:`RunningStats` — Welford's online mean/variance (numerically
  stable over hundreds of thousands of samples).
* :class:`WindowedSeries` — retains a bounded tail of raw samples for
  convergence checks and percentile reporting.
* :class:`Histogram` — fixed-width bins for response-time distributions.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple


class RunningStats:
    """Welford online accumulator for mean, variance, min and max."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 if empty, matching 'no delay observed')."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.stddev / math.sqrt(self.count) if self.count else 0.0

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (parallel Welford merge)."""
        merged = RunningStats()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged.count = n
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / n
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunningStats n={self.count} mean={self.mean:.3f}>"


class WindowedSeries:
    """Keeps overall stats plus the most recent ``window`` raw samples.

    The retained tail supports the convergence heuristic used by the
    runner: the run is declared steady when the means of the first and
    second halves of the window agree within a tolerance.
    """

    def __init__(self, window: int = 4096):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        self.stats = RunningStats()
        self._tail: Deque[float] = deque(maxlen=window)

    def add(self, value: float) -> None:
        """Record one sample."""
        self.stats.add(value)
        self._tail.append(value)

    @property
    def tail(self) -> List[float]:
        """A copy of the retained recent samples."""
        return list(self._tail)

    def tail_percentile(self, fraction: float) -> float:
        """Percentile (0..1) over the retained tail."""
        if not self._tail:
            raise ValueError("no samples recorded")
        ordered = sorted(self._tail)
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    def is_converged(self, rtol: float = 0.02) -> bool:
        """True when the two halves of the full window agree within ``rtol``."""
        if len(self._tail) < self.window:
            return False
        half = self.window // 2
        samples = list(self._tail)
        first = sum(samples[:half]) / half
        second = sum(samples[half:]) / (len(samples) - half)
        scale = max(abs(first), abs(second), 1e-12)
        return abs(first - second) / scale <= rtol


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    The classic CSIM "table statistic": record the signal's value at
    each change instant; the mean weights each value by how long it
    held.  Used for queue lengths and resource utilisation.
    """

    __slots__ = ("_last_time", "_last_value", "_weighted_sum", "_elapsed",
                 "maximum")

    def __init__(self, start_time: float = 0.0, initial_value: float = 0.0):
        self._last_time = start_time
        self._last_value = initial_value
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self.maximum = initial_value

    def record(self, time: float, value: float) -> None:
        """The signal changed to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time} < {self._last_time}"
            )
        span = time - self._last_time
        self._weighted_sum += self._last_value * span
        self._elapsed += span
        self._last_time = time
        self._last_value = value
        if value > self.maximum:
            self.maximum = value

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean up to ``now`` (default: last change)."""
        weighted = self._weighted_sum
        elapsed = self._elapsed
        if now is not None:
            if now < self._last_time:
                raise ValueError(
                    f"now={now} precedes the last change at {self._last_time}"
                )
            span = now - self._last_time
            weighted += self._last_value * span
            elapsed += span
        return weighted / elapsed if elapsed > 0 else self._last_value

    @property
    def current(self) -> float:
        """The signal's present value."""
        return self._last_value


class Histogram:
    """Fixed-width histogram over ``[low, high)`` with overflow bins."""

    def __init__(self, low: float, high: float, bins: int):
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        if not high > low:
            raise ValueError(f"need high > low, got [{low}, {high})")
        self.low = low
        self.high = high
        self.bins = bins
        self._width = (high - low) / bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0

    def add(self, value: float) -> None:
        """Record one sample in its bin."""
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            # A value infinitesimally below ``high`` can round up to
            # index == bins when (high - low) / bins is not exact in
            # binary; clamp to the last in-range bin.
            index = int((value - self.low) / self._width)
            if index >= self.bins:
                index = self.bins - 1
            self.counts[index] += 1

    @property
    def total(self) -> int:
        """Total samples recorded, including over/underflow."""
        return sum(self.counts) + self.underflow + self.overflow

    def edges(self) -> List[Tuple[float, float]]:
        """The ``[lo, hi)`` boundaries of each bin."""
        return [
            (self.low + i * self._width, self.low + (i + 1) * self._width)
            for i in range(self.bins)
        ]

    def nonempty(self) -> List[Tuple[float, float, int]]:
        """``(lo, hi, count)`` for every bin holding at least one sample."""
        return [
            (lo, hi, count)
            for (lo, hi), count in zip(self.edges(), self.counts)
            if count
        ]
