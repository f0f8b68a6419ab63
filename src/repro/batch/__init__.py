"""The columnar batch-fleet engine: N clients stepped in lockstep.

One engine instance holds columnar NumPy state for a whole fleet of
clients sharing a single :class:`~repro.core.schedule.BroadcastSchedule`
— per-client clocks, cache contents, evict scores, and statistics as
``(N,)``/``(N, C)`` arrays — and advances every client per request step
with array operations instead of running N Python event loops.

Two layers:

* :mod:`repro.batch.engine` — the general columnar engine.  For a
  single client it is *byte-identical* to the ``fast`` engine (same
  Welford fold, same closed-form clock arithmetic, same trace records).
  :func:`~repro.exec.run.run_columnar` is its one entry: a ``batch``
  plan is a one-seed call, so ``--engine batch`` works from every CLI.
* :mod:`repro.batch.fleet` — :func:`~repro.batch.fleet.run_fleet`:
  expands homogeneous population segments (and finite-support
  sub-segment buckets) into one ``run_columnar`` call per bucket, with
  one seed per client; continuous or unbatchable segments fall back
  per-client.  Each column draws its mapping and trace as its client's
  plan does, and every path is exact, so a batch fleet folds
  byte-identically to ``run_population``, observed or not (see
  ``docs/PERFORMANCE.md``).
"""

from repro.batch.fleet import run_fleet

__all__ = ["run_fleet"]
