"""LIX and L: the implementable cost-based policies of §5.5.

**LIX** modifies LRU to account for broadcast frequency:

* The cache is organised as one LRU chain per broadcast disk; a page
  always lives in the chain of the disk it is broadcast on.  Chains have
  no fixed sizes — they grow and shrink with the access pattern.
* Each cached page carries a running probability estimate ``p`` and its
  last access time ``t``.  On entry ``p = 0`` and ``t = now``; on a hit::

      p = alpha / (now - t) + (1 - alpha) * p;   t = now

  with ``alpha = 0.25`` in the paper's experiments.
* On replacement, the *lix* value ``p_evaluated / frequency`` is computed
  only for the page at the bottom (least recently used end) of each
  chain, where ``p_evaluated`` applies the update formula at the current
  time without committing it — aging the estimate so long-untouched
  pages look colder.  The smallest lix value is evicted, and the new
  page joins the chain of its own disk.

This costs a constant number of operations per replacement (proportional
to the number of disks), the same order as LRU.  With a single flat disk
LIX reduces exactly to LRU: one chain, one candidate — its bottom page.

**L** is LIX with the frequency division removed (all pages assumed
equally frequent).  It isolates how much of LIX's win comes from the
probability estimate versus the frequency heuristic (§5.5.1): L is the
implementable analogue of P, as LIX is of PIX.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.cache.base import CachePolicy, PolicyContext
from repro.errors import ConfigurationError

#: Minimum inter-access gap used in the estimator, guarding the division
#: when a page is re-hit at the same simulation instant.
_MIN_GAP = 1e-9


@dataclass(slots=True)
class _PageState:
    """Per-page bookkeeping: running estimate and last access time."""

    estimate: float
    last_access: float


class LIXPolicy(CachePolicy):
    """Per-disk LRU chains with probability-estimate/frequency eviction."""

    name = "LIX"
    #: The L subclass drops ``frequency``: its lix value is the bare
    #: estimate.
    oracles = ("disk_of", "frequency")

    def __init__(self, capacity: int, context: PolicyContext):
        super().__init__(capacity)
        context.require(*self.oracles)
        if not 0.0 < context.lix_alpha <= 1.0:
            raise ConfigurationError(
                f"lix_alpha must be in (0, 1], got {context.lix_alpha}"
            )
        if context.num_disks < 1:
            raise ConfigurationError(
                f"num_disks must be >= 1, got {context.num_disks}"
            )
        self._alpha = context.lix_alpha
        self._disk_of = context.disk_of
        self._frequency = (
            context.frequency if "frequency" in self.oracles else None
        )
        self._chains: tuple[OrderedDict[int, _PageState], ...] = tuple(
            OrderedDict() for _ in range(context.num_disks)
        )
        self._chain_of: Dict[int, int] = {}

    # -- protocol ------------------------------------------------------------
    def __contains__(self, page: int) -> bool:
        return page in self._chain_of

    def __len__(self) -> int:
        return len(self._chain_of)

    def pages(self) -> Iterable[int]:
        return iter(self._chain_of)

    def lookup(self, page: int, now: float) -> bool:
        chain_index = self._chain_of.get(page)
        if chain_index is None:
            return False
        chain = self._chains[chain_index]
        state = chain[page]
        alpha = self._alpha
        state.estimate = (
            alpha / max(now - state.last_access, _MIN_GAP)
            + (1.0 - alpha) * state.estimate
        )
        state.last_access = now
        chain.move_to_end(page)
        return True

    def admit(self, page: int, now: float) -> Optional[int]:
        chain_of = self._chain_of
        if page in chain_of:
            self._check_not_resident(page)
        chains = self._chains
        victim = None
        if len(chain_of) >= self.capacity:
            # Score each chain's bottom (least recently used) page with
            # its estimate aged to ``now``, uncommitted; evict the
            # smallest.  A never-broadcast page scores infinity.
            alpha = self._alpha
            frequency = self._frequency
            best_value = math.inf
            for chain in chains:
                if not chain:
                    continue
                candidate = next(iter(chain))
                state = chain[candidate]
                value = (
                    alpha / max(now - state.last_access, _MIN_GAP)
                    + (1.0 - alpha) * state.estimate
                )
                if frequency is not None:
                    rate = float(frequency(candidate))
                    value = math.inf if rate <= 0.0 else value / rate
                if value < best_value:
                    best_value = value
                    victim = candidate
            assert victim is not None, "eviction from a non-empty cache"
            del chains[chain_of.pop(victim)][victim]
        destination = self._disk_of(page)
        chains[destination][page] = _PageState(0.0, now)
        chain_of[page] = destination
        return victim

    def discard(self, page: int) -> bool:
        chain_index = self._chain_of.pop(page, None)
        if chain_index is None:
            return False
        del self._chains[chain_index][page]
        return True

    # -- introspection (used by tests and the worked Figure 12 example) -----
    def chain_pages(self, disk: int) -> list[int]:
        """Pages in one chain, least recently used first."""
        return list(self._chains[disk])

    def estimate_of(self, page: int) -> float:
        """Committed (not aged) probability estimate of a resident page."""
        chain_index = self._chain_of[page]
        return self._chains[chain_index][page].estimate


class LPolicy(LIXPolicy):
    """LIX without the frequency term: the implementable analogue of P."""

    name = "L"
    oracles = ("disk_of",)
