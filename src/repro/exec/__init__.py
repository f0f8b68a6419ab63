"""The execution layer: plans, the plan runner, build caching, resumability.

The experiments stack used to run sweeps strictly serially, rebuilding
the layout/schedule/mapping at every design point.  This package splits
*what to run* from *how to run it*:

* :class:`~repro.exec.plan.RunPlan` — a frozen, hashable, picklable
  unit of work (config + engine + collection options) with
  deterministic per-plan seed derivation;
* :func:`~repro.exec.executor.run_plans` — the one plan runner, in
  this process or on a process pool (``jobs``), whose results are
  byte-identical regardless of worker count or completion order
  (results are reassembled in plan order);
* :class:`~repro.exec.build.BuildCache` — layout/schedule reuse across
  plans sharing a broadcast structure, and reuse of the last mapping
  and trace when consecutive plans share them;
* :class:`~repro.exec.checkpoint.SweepCheckpoint` — JSONL journal that
  lets an interrupted sweep resume without re-running finished plans.

See ``docs/ARCHITECTURE.md`` for the layering and the determinism
contract.
"""

from repro.exec.build import BuildCache, structural_hash, structural_key
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.executor import run_plans, usable_cores
from repro.exec.plan import RunPlan, derive_seed, plan_sweep
from repro.exec.run import execute_plan

__all__ = [
    "BuildCache",
    "RunPlan",
    "SweepCheckpoint",
    "derive_seed",
    "execute_plan",
    "plan_sweep",
    "run_plans",
    "structural_hash",
    "structural_key",
    "usable_cores",
]
