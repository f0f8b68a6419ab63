"""Structural build caching: reuse layouts and schedules across plans.

Constructing the broadcast program is the most expensive *deterministic*
part of a design point: the multi-disk chunking of 5,000 pages plus the
schedule's per-page occurrence index.  Yet entire sweep families (every
noise level of Figures 6-9, every policy of Figures 13-15) share one
layout/schedule and differ only in workload or cache parameters.

:class:`BuildCache` memoises ``(layout, schedule)`` keyed on the
config's *structural key* — exactly the fields that determine the
broadcast program (disk sizes, Δ, explicit relative frequencies) and
nothing else.  Both objects are immutable after construction (the
schedule's occurrence arrays are built once in ``__init__``), so
sharing them across runs cannot perturb results; the equivalence is
asserted by ``tests/test_exec_plan.py``.

Because the schedule object itself is shared, its lazily-built timing
structures — the fixed-gap entries and the non-empty-slot index of
``docs/PERFORMANCE.md`` — are built once per broadcast
structure and reused by every sweep point that shares it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.experiments.config import ExperimentConfig


def structural_key(config: ExperimentConfig) -> Tuple:
    """The config fields that determine the layout and schedule.

    Single-channel keys are unchanged from 1.1.  A multi-channel
    program additionally depends on the channel count and on the
    server-side probability estimate steering the conflict-aware
    assignment (access_range/region_size/theta) plus the retune cost in
    its objective, so those join the key only when ``channels > 1``.
    """
    key = (config.disk_sizes, config.delta, config.rel_freqs)
    if config.channels > 1:
        key = key + (
            config.channels,
            config.retune_cost,
            config.access_range,
            config.region_size,
            config.theta,
        )
    return key


def structural_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the structural key — a stable cross-run identity.

    Two configs share a structural hash iff they broadcast the same
    program, regardless of client-side parameters (cache, noise, seed).
    """
    payload = json.dumps(structural_key(config), sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class BuildCache:
    """Memoised layout/schedule construction for one execution context.

    Each executor (and each worker process) owns its own cache; entries
    are never shipped across process boundaries — workers rebuild on
    first use and reuse thereafter.
    """

    def __init__(self):
        self._built: Dict[Tuple, Tuple[DiskLayout, BroadcastSchedule]] = {}
        #: Cache statistics, for the curious and for tests.
        self.hits = 0
        self.misses = 0

    def layout_and_schedule(
        self, config: ExperimentConfig
    ) -> Tuple[DiskLayout, BroadcastSchedule]:
        """The (possibly shared) layout and schedule for ``config``."""
        key = structural_key(config)
        entry = self._built.get(key)
        if entry is None:
            layout = config.build_layout()
            entry = (layout, config.build_schedule(layout))
            self._built[key] = entry
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._built)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BuildCache entries={len(self._built)} "
            f"hits={self.hits} misses={self.misses}>"
        )
