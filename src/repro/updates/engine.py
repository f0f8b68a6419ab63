"""The volatile-data engine: versioned caching with invalidation reports.

:class:`VolatileEngine` is a cache wrapper that
:class:`~repro.experiments.engine.FastEngine` drives, standing around
the client's cache:

* the server transmits the page content current at each slot's
  completion — a fetched copy carries that instant's version;
* a client cache hit serves the cached copy; the read is **stale** when
  the live version has advanced past the fetched one;
* optionally, the server emits an invalidation report every
  ``report_interval`` broadcast units listing pages updated in the
  window since the previous report, and the client discards any cached
  copy it names.  Listening costs one broadcast unit of tuning per
  report (accounted in the ``reports_heard`` counter); the response-time
  cost is indirect — invalidated pages must be re-fetched.

Reports are caught up at each lookup, after the think time: the engine
calls :meth:`VolatileEngine.lookup` at the request instant, and every
report aired at or before it is applied first.

With reports on, a stale read can still occur within one report window
(the copy aged between the update and the next report) — the same
consistency granularity Datacycle's per-cycle semantics give, which is
the paper's §7 "manageable" change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.cache.base import CachePolicy
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.experiments.engine import EngineOutcome, FastEngine
from repro.updates.process import UpdateModel
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


@dataclass
class VolatileOutcome(EngineOutcome):
    """Measurements from one volatile-data run: the fast engine's
    outcome and the run's staleness counts."""

    stale_reads: int = 0
    invalidations_applied: int = 0
    reports_heard: int = 0

    @property
    def stale_fraction(self) -> float:
        """Fraction of measured requests served stale from the cache."""
        if self.measured_requests == 0:
            return 0.0
        return self.stale_reads / self.measured_requests


class VolatileEngine(CachePolicy):
    """Versioned broadcast data around a client cache, run on FastEngine."""

    name = "volatile"

    def __init__(
        self,
        schedule: BroadcastSchedule,
        mapping: LogicalPhysicalMapping,
        layout: DiskLayout,
        cache: CachePolicy,
        updates: UpdateModel,
        think_time: float = 2.0,
        report_interval: Optional[float] = None,
    ):
        if think_time < 0:
            raise ConfigurationError(f"think_time must be >= 0, got {think_time}")
        if report_interval is not None and report_interval <= 0:
            raise ConfigurationError(
                f"report_interval must be positive, got {report_interval}"
            )
        super().__init__(cache.capacity)
        self.schedule = schedule
        self.mapping = mapping
        self.layout = layout
        self.cache = cache
        self.updates = updates
        self.think_time = think_time
        self.report_interval = report_interval
        self._reset(0)

    def _reset(self, warmup_requests: int) -> None:
        # Version each cached logical page was fetched at.
        self._fetched: Dict[int, int] = {}
        self._unmeasured = warmup_requests
        self._stale_reads = 0
        self._invalidations = 0
        self._reports_heard = 0
        self._last_report = 0.0
        self._next_report = self.report_interval

    def run_trace(
        self,
        trace: RequestTrace,
        warmup_requests: int = 0,
    ) -> VolatileOutcome:
        """Run the trace; the first ``warmup_requests`` are unmeasured."""
        self._reset(warmup_requests)
        outcome = FastEngine(
            self.schedule, self.mapping, self.layout, self, self.think_time
        ).run_trace(trace, warmup_requests=warmup_requests)
        return VolatileOutcome(
            **vars(outcome),
            stale_reads=self._stale_reads,
            invalidations_applied=self._invalidations,
            reports_heard=self._reports_heard,
        )

    # -- cache protocol ----------------------------------------------------
    def __contains__(self, page: int) -> bool:
        return page in self.cache

    def __len__(self) -> int:
        return len(self.cache)

    def pages(self) -> Iterable[int]:
        return self.cache.pages()

    def lookup(self, page: int, now: float) -> bool:
        next_report = self._next_report
        if next_report is not None and next_report <= now:
            self._hear_reports(now)
        hit = self.cache.lookup(page, now)
        if self._unmeasured > 0:
            self._unmeasured -= 1
        elif hit and self.updates.version_at(
            self.mapping.to_physical(page), now
        ) > self._fetched.get(page, 0):
            self._stale_reads += 1
        return hit

    def admit(self, page: int, now: float) -> Optional[int]:
        outside = self.cache.admit(page, now)
        if outside != page:
            self._fetched[page] = self.updates.version_at(
                self.mapping.to_physical(page), now
            )
            if outside is not None:
                self._fetched.pop(outside, None)
        return outside

    def discard(self, page: int) -> bool:
        self._fetched.pop(page, None)
        return self.cache.discard(page)

    def _hear_reports(self, now: float) -> None:
        """Apply every report aired at or before ``now``; each covers the
        updates since the previous report."""
        to_physical = self.mapping.to_physical
        updated_in = self.updates.updated_in
        while self._next_report <= now:
            self._reports_heard += 1
            for page in list(self.cache.pages()):
                if updated_in(
                    to_physical(page), self._last_report, self._next_report
                ):
                    self.discard(page)
                    self._invalidations += 1
            self._last_report = self._next_report
            self._next_report += self.report_interval
