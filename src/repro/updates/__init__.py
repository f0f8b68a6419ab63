"""Volatile broadcast data: updates and invalidation reports.

The paper restricts itself to read-only data and asks, in §7: "How
would our results have to change if we allowed the broadcast data to
change from cycle to cycle?  What kinds of changes would be allowed in
order to keep the scheme manageable?"  Its related work points at the
answer pattern: Datacycle's periodicity gives update semantics, and
[Barb94]'s *invalidation reports* let caching clients detect staleness
without upstream communication.

This subpackage builds that machinery:

* :mod:`~repro.updates.process` — server-side update models: pages
  carry versions that advance over time (deterministic-period or
  Poisson), queryable at any instant.
* :mod:`~repro.updates.engine` — :class:`VolatileEngine`, a cache
  wrapper that :class:`~repro.experiments.engine.FastEngine` drives,
  where cached copies carry the version they were fetched at.  Clients
  optionally listen to periodic invalidation reports (one broadcast
  slot each) naming the pages updated in the last window and discard
  stale cache entries.
* Metrics: on top of response time and hit rate, the **stale-read
  fraction** (hits served from an outdated copy) and the number of
  invalidations applied.

The bench sweeps the update rate and shows the §7 trade: without
reports, staleness grows with volatility; with reports, staleness is
bounded by the report period at a small response-time cost (invalidated
pages must be re-fetched).
"""

from repro.updates.engine import VolatileEngine, VolatileOutcome
from repro.updates.process import PeriodicUpdateModel, PoissonUpdateModel

__all__ = [
    "PeriodicUpdateModel",
    "PoissonUpdateModel",
    "VolatileEngine",
    "VolatileOutcome",
]
