"""The idealised P policy: keep the highest-probability pages (§5.3).

P has perfect knowledge of the client's access probabilities and always
holds the most valuable set it has seen: a new page is cached only if its
probability beats the least valuable resident, which it then replaces.
In steady state the cache therefore contains exactly the CacheSize
hottest pages the client ever requests — the paper's stated behaviour.

P is not implementable (perfect knowledge, global comparisons); the paper
uses it to expose the *flaw* of probability-only caching on a broadcast
disk: it caches hot pages even when they ride the fastest disk, making
its misses expensive and the client noise-sensitive (Figure 8).

Implementation: probabilities are static, so eviction uses a lazy
min-heap keyed by probability with stale-entry skipping — O(log n)
amortised per admit.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, Optional

from repro.cache.base import CachePolicy, PolicyContext


class PPolicy(CachePolicy):
    """Evict (or refuse) the page with the lowest access probability."""

    name = "P"
    oracles = ("probability",)

    def __init__(self, capacity: int, context: PolicyContext):
        super().__init__(capacity)
        context.require(*self.oracles)
        self._probability = context.probability
        self._resident: Dict[int, float] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._stamp = itertools.count()

    # -- protocol ------------------------------------------------------------
    def __contains__(self, page: int) -> bool:
        return page in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def pages(self) -> Iterable[int]:
        return iter(self._resident)

    def lookup(self, page: int, now: float) -> bool:
        # Probabilities are static: a hit carries no new information.
        return page in self._resident

    def admit(self, page: int, now: float) -> Optional[int]:
        resident = self._resident
        if page in resident:
            self._check_not_resident(page)
        value = self._value(page)
        heap = self._heap
        if len(resident) < self.capacity:
            resident[page] = value
            heapq.heappush(heap, (value, next(self._stamp), page))
            return None
        # The heap's least entry that is still current (stale entries,
        # left by discard, are popped on the way).
        while True:
            least, _stamp, victim = heap[0]
            if resident.get(victim) == least:
                break
            heapq.heappop(heap)
        if least >= value:
            # Nothing resident is less valuable: decline the new page.
            return page
        heapq.heappop(heap)
        del resident[victim]
        resident[page] = value
        heapq.heappush(heap, (value, next(self._stamp), page))
        return victim

    def discard(self, page: int) -> bool:
        # Heap entries for the page go stale and are skipped lazily.
        return self._resident.pop(page, None) is not None

    # -- internals ------------------------------------------------------------
    def _value(self, page: int) -> float:
        return float(self._probability(page))
