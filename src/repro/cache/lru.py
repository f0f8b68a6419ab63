"""Classic least-recently-used replacement.

The implementable baseline of Experiment 5.  LRU approximates P (recency
as a proxy for probability) and, like P, ignores re-acquisition cost —
which is exactly what the broadcast disk punishes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.cache.base import CachePolicy, PolicyContext


class LRUPolicy(CachePolicy):
    """Evict the least recently used page; always admit the new page."""

    name = "LRU"

    def __init__(self, capacity: int, context: Optional[PolicyContext] = None):
        # ``context`` is accepted for registry uniformity; LRU needs none.
        super().__init__(capacity)
        self._chain: OrderedDict[int, None] = OrderedDict()

    def __contains__(self, page: int) -> bool:
        return page in self._chain

    def __len__(self) -> int:
        return len(self._chain)

    def pages(self) -> Iterable[int]:
        return iter(self._chain)

    def lookup(self, page: int, now: float) -> bool:
        if page not in self._chain:
            return False
        self._chain.move_to_end(page)
        return True

    def admit(self, page: int, now: float) -> Optional[int]:
        chain = self._chain
        if page in chain:
            self._check_not_resident(page)
        victim = None
        if len(chain) >= self.capacity:
            victim, _ = chain.popitem(last=False)
        chain[page] = None
        return victim

    def discard(self, page: int) -> bool:
        # Resident pages are stored with value None, so a sentinel-based
        # ``pop(...) is not None`` would misreport them as absent.
        if page not in self._chain:
            return False
        del self._chain[page]
        return True
