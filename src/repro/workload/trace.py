"""Materialised request traces.

A :class:`RequestTrace` is the sequence of logical page requests a client
will issue, drawn up-front from an access distribution.  Traces serve two
purposes:

* **Engine cross-validation**: feeding the identical trace to the fast
  analytic engine and the process-oriented kernel engine must produce
  identical per-request response times — the strongest correctness check
  in the test suite.
* **Replay experiments**: comparing cache policies on the *same* request
  string removes sampling variance from the comparison (variance
  reduction by common random numbers).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.distributions import AccessDistribution


@dataclass(frozen=True)
class RequestTrace:
    """An immutable sequence of logical page requests."""

    pages: np.ndarray

    def __post_init__(self):
        pages = np.asarray(self.pages, dtype=np.int64)
        if pages.ndim != 1:
            raise ConfigurationError("a trace must be a 1-D sequence of pages")
        if len(pages) == 0:
            raise ConfigurationError("a trace needs at least one request")
        if np.any(pages < 0):
            raise ConfigurationError("page ids must be non-negative")
        # A read-only view: a trace may be shared by many runs.
        pages = pages.view()
        pages.flags.writeable = False
        object.__setattr__(self, "pages", pages)

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[int]:
        return iter(int(p) for p in self.pages)

    def __getitem__(self, index: int) -> int:
        return int(self.pages[index])

    @property
    def distinct_pages(self) -> int:
        """Number of distinct pages requested."""
        return len(np.unique(self.pages))

    def frequencies(self) -> Counter:
        """Request count per page."""
        return Counter(int(p) for p in self.pages)

    def empirical_probability(self, page: int) -> float:
        """Fraction of requests that target ``page``."""
        return float(np.count_nonzero(self.pages == page)) / len(self.pages)

    def split(self, at: int) -> tuple["RequestTrace", "RequestTrace"]:
        """Split into (warm-up, measurement) sections at index ``at``."""
        if not 0 < at < len(self.pages):
            raise ConfigurationError(
                f"split point {at} outside (0, {len(self.pages)})"
            )
        return RequestTrace(self.pages[:at]), RequestTrace(self.pages[at:])

    @classmethod
    def from_pages(cls, pages: Sequence[int]) -> "RequestTrace":
        """Build a trace from any page-id sequence."""
        return cls(np.asarray(list(pages), dtype=np.int64))


def generate_trace(
    distribution: AccessDistribution,
    num_requests: int,
    rng: np.random.Generator,
) -> RequestTrace:
    """Draw ``num_requests`` i.i.d. requests from ``distribution``."""
    if num_requests < 1:
        raise ConfigurationError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    return RequestTrace(distribution.sample(rng, num_requests))
