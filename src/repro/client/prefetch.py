"""Opportunistic prefetching from the broadcast (§7 future work).

The paper closes by sketching prefetching: "The client cache manager
would use the broadcast as a way to opportunistically increase the
temperature of its cache."  The heuristic the authors subsequently
published (the *PT* rule) values a page by

    pt(page) = probability(page) x time-until-next-broadcast(page)

and, as each page goes by on the broadcast, swaps it into the cache iff
its value exceeds the lowest-valued resident page.  Intuitively, a page
worth caching is one that is both likely to be needed and about to become
expensive to obtain.

Two variants are provided:

* ``steady`` (default) — values are the steady-state expectation
  ``probability x inter-arrival/2``; static per experiment, so the swap
  test is O(log cache) per passing page and full-scale runs are cheap.
* ``dynamic`` — values are recomputed with the live clock at every slot
  (the exact PT rule); O(cache) per slot, intended for small scenarios.

Unlike the demand-driven policies, a PT cache changes on *every* slot,
not only on misses.  :class:`PrefetchEngine` is a cache policy that
:class:`~repro.experiments.engine.FastEngine` drives: each ``lookup``
and ``admit`` first applies the swap rule to every completion since the
previous call (:meth:`~repro.core.schedule.BroadcastSchedule.completions_in`),
so the cache sees each interval the client spends thinking or waiting.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Iterable, Optional

from repro.cache.base import CachePolicy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.experiments.engine import EngineOutcome, FastEngine
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


def pt_value(
    probability: float,
    schedule: BroadcastSchedule,
    physical_page: int,
    now: float,
) -> float:
    """The exact PT value: probability x time until the next broadcast."""
    return probability * (schedule.next_arrival(physical_page, now) - now)


class PrefetchEngine(CachePolicy):
    """A PT-prefetching client cache that snoops the broadcast."""

    name = "PT"

    def __init__(
        self,
        schedule: BroadcastSchedule,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        probability: Callable[[int], float],
        cache_capacity: int,
        think_time: float,
        variant: str = "steady",
    ):
        if variant not in ("steady", "dynamic"):
            raise ConfigurationError(
                f"variant must be 'steady' or 'dynamic', got {variant!r}"
            )
        super().__init__(cache_capacity)
        self.schedule = schedule
        self.mapping = mapping
        self.layout = layout
        self.probability = probability
        self.think_time = think_time
        self.variant = variant

        # Steady-state value of each logical page: p x mean residual life
        # of its broadcast (half the fixed inter-arrival gap).
        self._steady_value: Dict[int, float] = {}
        # Resident set: logical page -> steady value (for the lazy heap).
        self._resident: Dict[int, float] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._stamp = itertools.count()
        # Every completion up to this instant has been through the swap rule.
        self._snooped = 0.0

    # -- cache mechanics --------------------------------------------------
    def _steady(self, logical: int) -> float:
        value = self._steady_value.get(logical)
        if value is None:
            p = self.probability(logical)
            if p <= 0.0:
                value = 0.0
            else:
                physical = self.mapping.to_physical(logical)
                gaps = self.schedule.gaps(physical)
                value = p * float(gaps[0]) / 2.0
            self._steady_value[logical] = value
        return value

    def _dynamic(self, logical: int, now: float) -> float:
        p = self.probability(logical)
        if p <= 0.0:
            return 0.0
        physical = self.mapping.to_physical(logical)
        return pt_value(p, self.schedule, physical, now)

    def _consider(self, logical: int, now: float) -> None:
        """Apply the PT swap rule to a page passing on the broadcast."""
        if logical in self._resident:
            return
        if len(self._resident) < self.capacity:
            if self._steady(logical) > 0.0 or len(self._resident) == 0:
                self._insert(logical)
            return
        if self.variant == "steady":
            value = self._steady(logical)
            victim = self._peek_min()
            if self._resident[victim] < value:
                self._evict(victim)
                self._insert(logical)
        else:
            value = self._dynamic(logical, now)
            victim = min(
                self._resident, key=lambda page: self._dynamic(page, now)
            )
            if self._dynamic(victim, now) < value:
                del self._resident[victim]
                self._resident[logical] = self._steady(logical)

    def _insert(self, logical: int) -> None:
        value = self._steady(logical)
        self._resident[logical] = value
        heapq.heappush(self._heap, (value, next(self._stamp), logical))

    def _peek_min(self) -> int:
        while True:
            value, _stamp, page = self._heap[0]
            if self._resident.get(page) == value:
                return page
            heapq.heappop(self._heap)

    def _evict(self, page: int) -> None:
        heapq.heappop(self._heap)
        del self._resident[page]

    # -- cache protocol -----------------------------------------------------
    def __contains__(self, page: int) -> bool:
        return page in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def pages(self) -> Iterable[int]:
        return self._resident.keys()

    def lookup(self, page: int, now: float) -> bool:
        self._snoop(now)
        return page in self._resident

    def admit(self, page: int, now: float) -> Optional[int]:
        # The wanted page's own arrival is the last completion snooped,
        # and is itself subject to the swap rule.
        self._snoop(now)
        return None if page in self._resident else page

    def discard(self, page: int) -> bool:
        return self._resident.pop(page, None) is not None

    def _snoop(self, now: float) -> None:
        """Apply the swap rule to every completion since the last snoop."""
        to_logical = self.mapping.to_logical
        consider = self._consider
        for completion, physical in self.schedule.completions_in(
            self._snooped, now
        ):
            consider(to_logical(physical), completion)
        self._snooped = now

    def run_trace(
        self,
        trace: RequestTrace,
        warmup_requests: int = 0,
        collect_responses: bool = False,
    ) -> EngineOutcome:
        """Run the trace with continuous snooping between requests.

        Every run's clock starts at 0; the cache carries over.
        """
        self._snooped = 0.0
        return FastEngine(
            self.schedule, self.mapping, self.layout, self, self.think_time
        ).run_trace(
            trace,
            warmup_requests=warmup_requests,
            collect_responses=collect_responses,
        )

    # -- reporting ------------------------------------------------------------
    @property
    def resident_pages(self) -> list:
        """Sorted logical pages currently cached."""
        return sorted(self._resident)
