"""The idealised PIX policy: evict the lowest P/X ratio (§3, §5.4).

PIX ("P Inverse X") weighs a page's access probability *P* against its
broadcast frequency *X*: a page that is somewhat hot but broadcast very
rarely is worth more cache space than a very hot page the fast disk
delivers constantly.  Under the paper's assumptions it is the optimal
replacement strategy; like P it is idealised (perfect probabilities,
global comparison), and §5.5's LIX is its implementable approximation.

The paper's worked example: a page accessed 1% of the time and broadcast
1% of the time has a *lower* PIX value than a page accessed 0.5% of the
time but broadcast only 0.1% of the time, so the former is evicted first
despite being accessed twice as often.

Implementation detail: P/X is static per experiment, so PIX shares P's
lazy-heap machinery with a different key.
"""

from __future__ import annotations

from repro.cache.base import PolicyContext
from repro.cache.p import PPolicy


class PIXPolicy(PPolicy):
    """Evict (or refuse) the page with the lowest probability/frequency."""

    name = "PIX"
    oracles = ("probability", "frequency")

    def __init__(self, capacity: int, context: PolicyContext):
        super().__init__(capacity, context)
        self._frequency = context.frequency

    def _value(self, page: int) -> float:
        frequency = float(self._frequency(page))
        if frequency <= 0.0:
            # Never broadcast: infinitely expensive to re-acquire.  The
            # paper's setting never produces this, but a dynamic program
            # might; treat as maximally cache-worthy.
            return float("inf")
        return float(self._probability(page)) / frequency
