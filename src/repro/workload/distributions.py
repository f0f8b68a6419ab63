"""Access-probability distributions over a logical page range.

A distribution assigns each logical page ``0 .. access_range-1`` a
probability of being requested; pages outside the range have probability
zero (§4.1: "All pages outside of this range have a zero probability of
access at the client").  Distributions expose both vectorised sampling
(for the fast engine) and the dense probability array (for the idealised
P/PIX policies, which the paper grants perfect knowledge).

Sampling is an inverse transform over the cumulative distribution: a
uniform draw ``u`` requests page ``searchsorted(cdf, u, side="right")``.
A guide table over :data:`_GUIDE_BINS` equal bins of ``[0, 1)`` starts
each search at the number of CDF entries at or below the left edge of
``u``'s bin, and the draw then steps up past the few entries left in
that bin.  The bin count is a power of two, so ``u * _GUIDE_BINS`` and
``cdf * _GUIDE_BINS`` are exact and the result equals ``searchsorted``
for every ``u``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Equal bins of ``[0, 1)`` in the sampling guide table (a power of two).
_GUIDE_BINS = 4096


class AccessDistribution(ABC):
    """Probability distribution over logical pages ``0..access_range-1``."""

    def __init__(self, access_range: int):
        if access_range < 1:
            raise ConfigurationError(
                f"access_range must be >= 1, got {access_range}"
            )
        self.access_range = access_range

    @abstractmethod
    def probabilities(self) -> np.ndarray:
        """Dense probability array of length ``access_range`` (sums to 1)."""

    # -- derived helpers ------------------------------------------------------
    def probability(self, page: int) -> float:
        """Access probability of one logical page (0.0 outside the range)."""
        if 0 <= page < self.access_range:
            return float(self.probabilities()[page])
        return 0.0

    def probability_map(self) -> Dict[int, float]:
        """``{page: probability}`` for pages with positive probability."""
        dense = self.probabilities()
        return {
            page: float(p) for page, p in enumerate(dense) if p > 0.0
        }

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. logical page requests.

        Exactly ``searchsorted(cdf, rng.random(size), side="right")``,
        found from the cached guide table: each draw takes as many steps
        as CDF entries share its bin, so the cost is O(size) plus
        O(access_range) once per distribution.
        """
        cdf, guide = self._cdf(), self._guide()
        draws = rng.random(size)
        pages = guide[(draws * _GUIDE_BINS).astype(np.intp)]
        pending = np.flatnonzero(cdf[pages] <= draws)
        while len(pending):
            pages[pending] += 1
            pending = pending[cdf[pages[pending]] <= draws[pending]]
        return pages

    def sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single logical page request."""
        return int(self.sample(rng, 1)[0])

    def _cdf(self) -> np.ndarray:
        cached = getattr(self, "_cdf_cache", None)
        if cached is None:
            probabilities = self.probabilities()
            cached = np.cumsum(probabilities)
            # Guard against floating drift: the mass is complete at the
            # last page that has any, so no draw can land past it.
            cached[np.flatnonzero(probabilities)[-1]:] = 1.0
            self._cdf_cache = cached
        return cached

    def _guide(self) -> np.ndarray:
        """Entry ``j``: CDF entries at or below ``j / _GUIDE_BINS``."""
        cached = getattr(self, "_guide_cache", None)
        if cached is None:
            # cdf <= j / _GUIDE_BINS exactly when
            # ceil(cdf * _GUIDE_BINS) <= j, both products being exact.
            edges = np.ceil(self._cdf() * _GUIDE_BINS).astype(np.intp)
            cached = np.cumsum(np.bincount(edges, minlength=_GUIDE_BINS))
            self._guide_cache = cached
        return cached


class UniformDistribution(AccessDistribution):
    """Every page in the range equally likely."""

    def probabilities(self) -> np.ndarray:
        return np.full(self.access_range, 1.0 / self.access_range)


class ExplicitDistribution(AccessDistribution):
    """A distribution given as an explicit weight vector.

    Weights are normalised; they need not sum to one.  Useful in tests
    and for modelling measured client access histograms.
    """

    def __init__(self, weights: Sequence[float]):
        weights = np.asarray(list(weights), dtype=np.float64)
        if weights.ndim != 1 or len(weights) < 1:
            raise ConfigurationError("weights must be a non-empty 1-D sequence")
        if np.any(weights < 0):
            raise ConfigurationError("weights must be non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ConfigurationError("weights must have positive total mass")
        super().__init__(len(weights))
        self._probabilities = weights / total

    def probabilities(self) -> np.ndarray:
        return self._probabilities
