"""The cache policy interface and the oracle context policies draw on.

The engines drive every policy through the same two-call protocol::

    if cache.lookup(page, now):      # hit: recency/estimate updated
        ...serve locally...
    else:
        ...wait for the broadcast...
        cache.admit(page, now)       # may evict, may reject the new page

``admit`` returns the page that ended up *outside* the cache: a victim,
the new page itself (idealised policies may refuse to cache a page less
valuable than everything resident — that is what lets P hold exactly the
CacheSize hottest pages in steady state, as §5.3 asserts), or ``None``
when there was still room.

A :class:`PolicyContext` carries the knowledge the paper grants each
policy: exact access probabilities (idealised P/PIX only), exact
broadcast frequencies (PIX and LIX — "the frequency for the page...is
known exactly"), and the page→disk map LIX needs for its chains.  A
policy names the oracles it reads in :attr:`CachePolicy.oracles`;
``ExperimentConfig.build_policy`` answers exactly those from per-run
tables indexed by logical page, gathered once in NumPy, so an oracle
call on the request path is a list read, not a walk through the
mapping, the schedule and the layout.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError, PolicyError


@dataclass
class PolicyContext:
    """Per-experiment knowledge made available to cache policies.

    Attributes
    ----------
    probability:
        Exact access probability of a logical page.  Required by the
        idealised P and PIX policies.
    frequency:
        Exact broadcast frequency (transmissions per broadcast unit) of a
        logical page.  Required by PIX and LIX.
    disk_of:
        0-based broadcast disk carrying a logical page.  Required by LIX
        and L for their per-disk chains.
    num_disks:
        Number of broadcast disks.
    lix_alpha:
        Weight of the most recent inter-access gap in LIX's running
        probability estimate; the paper uses 0.25.
    """

    probability: Optional[Callable[[int], float]] = None
    frequency: Optional[Callable[[int], float]] = None
    disk_of: Optional[Callable[[int], int]] = None
    num_disks: int = 1
    lix_alpha: float = 0.25

    def require(self, *names: str) -> None:
        """Raise ConfigurationError unless every named oracle is present."""
        for name in names:
            if getattr(self, name) is None:
                raise ConfigurationError(
                    f"this policy requires the {name!r} oracle in its context"
                )


class CachePolicy(ABC):
    """Abstract base class for page replacement policies."""

    #: Registry name; subclasses override.
    name = "abstract"

    #: The :class:`PolicyContext` oracles the policy reads, in the order
    #: its constructor requires them.  ``ExperimentConfig.build_policy``
    #: gathers a per-run table for these and no others.
    oracles: Tuple[str, ...] = ()

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1 page, got {capacity}"
            )
        self.capacity = capacity

    # -- protocol ------------------------------------------------------------
    @abstractmethod
    def __contains__(self, page: int) -> bool:
        """True if ``page`` is cache-resident."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of cache-resident pages."""

    @abstractmethod
    def pages(self) -> Iterable[int]:
        """Iterate the cache-resident pages (order unspecified)."""

    @abstractmethod
    def lookup(self, page: int, now: float) -> bool:
        """Probe for ``page``; update recency state on a hit.

        Returns True on a hit.  A miss changes no state — the page enters
        only via :meth:`admit`, after it has arrived on the broadcast.
        """

    @abstractmethod
    def admit(self, page: int, now: float) -> Optional[int]:
        """Offer a just-fetched page to the cache.

        Returns the page left uncached: an evicted victim, ``page``
        itself if the policy declined to cache it, or ``None`` if the
        cache had a free slot.  Raises :class:`PolicyError` if ``page``
        is already resident.
        """

    @abstractmethod
    def discard(self, page: int) -> bool:
        """Drop ``page`` from the cache without replacement.

        Used by the volatile-data extension when an invalidation report
        names a cached page.  Returns True if the page was resident.
        """

    # -- shared helpers --------------------------------------------------------
    def _check_not_resident(self, page: int) -> None:
        if page in self:
            raise PolicyError(
                f"{self.name}: admit() called for already-resident page {page}"
            )

    @property
    def is_full(self) -> bool:
        """True when every cache slot is occupied."""
        return len(self) >= self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {len(self)}/{self.capacity}>"


@dataclass
class CacheCounters:
    """Hit/miss bookkeeping shared by the engines."""

    hits: int = 0
    misses: int = 0
    per_disk_misses: Dict[int, int] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        """Total requests observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache."""
        return self.hits / self.requests if self.requests else 0.0

    def record_hit(self) -> None:
        """Count one cache hit."""
        self.hits += 1

    def record_miss(self, disk: int) -> None:
        """Count one miss served from broadcast ``disk`` (0-based)."""
        self.misses += 1
        self.per_disk_misses[disk] = self.per_disk_misses.get(disk, 0) + 1

    def access_locations(self, num_disks: int) -> Dict[str, float]:
        """Fraction of accesses served per location (Figure 11/14 data)."""
        total = self.requests or 1
        locations = {"cache": self.hits / total}
        for disk in range(num_disks):
            locations[f"disk{disk + 1}"] = (
                self.per_disk_misses.get(disk, 0) / total
            )
        return locations
