"""Host-speed normalisation for the timed regions of a repetition.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 2x, in phases that last from about a second to minutes.  The
changes are invisible from inside the guest: CPU time tracks wall time,
there are no hardware counters, and a second process on the other core
does not slow down with the first.  So every repetition measures the
speed of its own core while it runs.

:class:`SpeedProbe` interrupts the process every ``INTERVAL_S`` seconds
(``SIGALRM``) and times a fixed piece of interpreter work, the *probe*,
in the signal handler.  A span of wall time is then reported in
*normalised seconds*: its wall time minus the probes run inside it,
scaled by ``NOMINAL_PROBE_S`` over the mean probe time seen inside it.
A code change moves the span and not the probes, so normalised seconds
move with the code under test; a slow phase of the host moves both, and
cancels.  ``NOMINAL_PROBE_S`` is close to the probe time in the host's
fast phases, so normalised seconds read as seconds on a quiet host.

Different kinds of code slow down by different amounts in a slow
phase.  A probe of integer arithmetic alone slows less than the
workloads do, and one of dict lookups alone slows more on some
workloads and less on others.  The probe is therefore three kinds of
work back to back: integer arithmetic, lookups in a dict that fits the
core's caches, and a small cache simulation with objects, a heap and
bisection.  The README compares the spreads of raw and normalised
wall times.  A probe takes about 0.9 ms every 50 ms, about 2% of a
span.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from dataclasses import dataclass
from typing import List, Optional

#: Seconds between probes.
INTERVAL_S = 0.05

#: The dict the probe looks keys up in (a power of two).
PROBE_KEYS = 4_096

#: The probe time that normalised seconds are scaled to.
NOMINAL_PROBE_S = 0.0009


@dataclass(frozen=True)
class Span:
    """One measured span of a repetition."""

    #: Wall seconds of the span, the probes run inside it excluded.
    raw_s: float
    #: Probes run inside the span (at least one).
    probes: int
    #: Their mean time, seconds.
    mean_probe_s: float

    @property
    def normalised_s(self) -> float:
        return self.raw_s * NOMINAL_PROBE_S / self.mean_probe_s


class _Entry:
    __slots__ = ("value", "stamp")

    def __init__(self, value: float, stamp: float):
        self.value = value
        self.stamp = stamp

    def score(self, now: float) -> float:
        return self.value / (now - self.stamp + 1.0)


def _arithmetic() -> int:
    value = 0
    for step in range(5_000):
        value = (value + step * 7) & 1023
    return value


def _lookups(table: dict, keys: List[int]) -> int:
    index = total = 0
    for _ in range(1_500):
        index = (index + 40_503) & (PROBE_KEYS - 1)
        total += table[keys[index]]
    return total


def _cache_simulation(keys: List[int], ordered: List[int]) -> float:
    cache = {}
    heap: List = []
    scores: List[float] = []
    now = 0.0
    index = 0
    for step in range(150):
        index = (index + 40_503) & (PROBE_KEYS - 1)
        key = keys[index]
        now += 1.5
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = _Entry(float(index % 17), now)
            heapq.heappush(heap, (entry.score(now), step, key))
            if len(heap) > 64:
                cache.pop(heapq.heappop(heap)[2], None)
        else:
            entry.stamp = now
            scores.append(entry.score(now))
        scores.append(bisect.bisect_left(ordered, key))
    return sum(sorted(scores[:32])) + len(f"{len(cache)}-{len(heap)}")


class SpeedProbe:
    """Periodic probes of the core's speed, in the main thread.

    Start it once, early; :meth:`span` reports the span since the last
    one and takes one probe itself, so even a span shorter than the
    interval has a measurement.  :meth:`stop` cancels the timer and
    restores the previous ``SIGALRM`` handler.
    """

    def __init__(self):
        self.seconds = 0.0
        self.count = 0
        self._busy = False
        self._previous = None
        self._mark = (time.monotonic(), 0.0, 0)
        self._keys = [(step * 2_654_435_761) % (1 << 32)
                      for step in range(PROBE_KEYS)]
        self._table = {key: step for step, key in enumerate(self._keys)}
        self._ordered = sorted(self._keys[:512])

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _probe(self, _signum=None, _frame=None) -> None:
        # A signal arriving while a probe runs on a very slow host would
        # nest another probe inside it.
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        _arithmetic()
        _lookups(self._table, self._keys)
        _cache_simulation(self._keys, self._ordered)
        self.seconds += time.perf_counter() - start
        self.count += 1
        self._busy = False

    def span(self, since: Optional[float] = None) -> Span:
        """The span from the end of the previous one (or from the
        ``time.monotonic()`` instant ``since``) to now; the next span
        starts here."""
        self._probe()
        now = time.monotonic()
        start, seconds, count = self._mark
        if since is not None:
            start = since
        probe_s = self.seconds - seconds
        probes = self.count - count
        self._mark = (now, self.seconds, self.count)
        return Span(now - start - probe_s, probes, probe_s / probes)
