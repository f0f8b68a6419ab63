"""The columnar batch-fleet engine: N clients stepped in lockstep.

One engine instance holds columnar NumPy state for a whole fleet of
clients sharing a single :class:`~repro.core.schedule.BroadcastSchedule`
— per-client clocks, cache contents, evict scores, and statistics as
``(N,)``/``(N, C)`` arrays — and advances every client per request step
with array operations instead of running N Python event loops.

Three layers:

* :mod:`repro.batch.rng` — the array-RNG gateway: per-client
  :class:`numpy.random.Generator` columns seeded through
  :func:`~repro.exec.plan.derive_seed`, entropy-compatible with
  :class:`~repro.sim.rng.RandomStreams`.
* :mod:`repro.batch.engine` — the general columnar engine.  For a
  single client it is *byte-identical* to the ``fast`` engine (same
  Welford fold, same closed-form clock arithmetic, same trace records);
  registered as the ``batch`` plan engine so ``--engine batch`` works
  from every CLI.
* :mod:`repro.batch.fleet` — :func:`~repro.batch.fleet.run_fleet`:
  expands homogeneous population segments (and finite-support
  sub-segment buckets) directly into columnar groups; continuous or
  unbatchable segments fall back per-client.  Every path is exact, so
  a batch fleet folds byte-identically to ``run_population``, observed
  or not (see ``docs/PERFORMANCE.md``).
"""

from repro.batch.fleet import run_fleet

__all__ = ["run_fleet"]
