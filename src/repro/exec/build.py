"""Structural build caching: reuse layouts, schedules, mappings and traces.

Constructing the broadcast program is the most expensive *deterministic*
part of a design point: the multi-disk chunking of 5,000 pages plus the
schedule's per-page tables.  Yet entire sweep families (every noise
level of Figures 6-9, every policy of Figures 13-15) share one
layout/schedule and differ only in workload or cache parameters.

:class:`BuildCache` memoises ``(layout, schedule)`` keyed on the
config's *structural key* — exactly the fields that determine the
broadcast program (disk sizes, Δ, explicit relative frequencies) and
nothing else.  Both objects are immutable after construction (the
schedule builds every timing table in ``__init__``), so sharing them
across runs cannot perturb results; the equivalence is asserted by
``tests/test_exec_plan.py``.  An entry stays until
:meth:`BuildCache.release` drops it: the in-process branch of
:func:`~repro.exec.executor.run_plans` releases each program after the
last pending plan that broadcasts it, so a sweep holds only the
programs its remaining plans need, never every program it built.

The cache also keeps the *last* logical→physical mapping and the *last*
request trace it built, and hands either back when the next plan asks
for the same one:

* a mapping depends on the disk sizes, the offset, the noise, the
  noise scope and the seed (:func:`_mapping_key`) — not on Δ, so the
  points of one Δ sweep share it;
* a trace depends on the access range, the region size, θ, the number
  of requests drawn, the seed and the drift (:func:`_trace_key`) — not
  on the broadcast or the policy.

Each is drawn from its own named stream of the seed, so reusing one
never shifts the other's draws.  One entry of each is kept: a fleet
whose clients all have different seeds holds one extra mapping and
trace, never one per client.  Both shared objects are read-only (the
mapping's arrays and the trace's page array reject writes).

Every trace follows one draw rule, :class:`TraceBlocks`: a client's
pages invert the uniforms of its seed's ``requests`` stream.  A
columnar run draws its columns a block of steps at a time
(:data:`BLOCK_DRAWS` page draws a block), so it never holds the whole
``(steps, clients)`` trace; :func:`draw_trace`, the scalar engines'
whole trace, is the one-block, one-column case.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastSchedule
from repro.experiments.config import ExperimentConfig
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import RequestTrace


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


def _mapping_key(config: ExperimentConfig) -> Tuple:
    """The config fields that determine the logical→physical mapping."""
    scope = None if config.noise_over_full_database else config.access_range
    return (config.disk_sizes, config.offset, config.noise, scope, config.seed)


def _trace_key(config: ExperimentConfig, num_requests: int) -> Tuple:
    """The fields that determine a ``num_requests``-request trace."""
    return (
        config.access_range,
        config.region_size,
        config.theta,
        num_requests,
        config.seed,
        config.drift_rotations,
    )


#: Page draws in one block of a columnar trace: a run holds
#: ``max(1, BLOCK_DRAWS // clients)`` steps of every column at a time.
#: Chosen by measurement (docs/PERFORMANCE.md, "Fleet memory"): each
#: block costs one ``Generator.random`` call per column, so smaller
#: blocks trade wall time for memory.
BLOCK_DRAWS = 2 ** 18


class TraceBlocks:
    """The first ``num_requests`` requests of one client per seed under
    ``config``'s workload, drawn a block of steps at a time.

    Iterating yields ``(rows, clients)`` blocks of logical page ids in
    step order, ``max(1, BLOCK_DRAWS // clients)`` rows each (the last
    block may be shorter), each a new array.  Each iteration starts
    every column afresh from its seed's ``requests`` stream, so the
    blocks of any iteration concatenate to the same ``shape`` matrix,
    and column ``c`` equals ``draw_trace(config, seeds[c],
    num_requests)``: a generator's ``random(a)`` followed by
    ``random(b)`` equals ``random(a + b)``.

    A drifting workload rotates its hotspot over the ``num_requests``
    drawn (warm-up included) while the policy oracle keeps the frozen
    t=0 snapshot: §3's stale-profile scenario, which
    ``figures.drift_study`` sweeps over ``drift_rotations``.
    """

    def __init__(self, config: ExperimentConfig, seeds: Sequence[int],
                 num_requests: int):
        self.seeds: List[int] = list(seeds)
        self.shape = (num_requests, len(self.seeds))
        self.distribution = config.build_distribution()
        self.drift = (config.build_drift(num_requests)
                      if config.drift_rotations else None)
        #: The narrowest signed dtype holding a page id.
        self.dtype = np.min_scalar_type(-config.access_range)

    @property
    def size(self) -> int:
        """Page draws in the whole trace (steps x clients), as a whole
        matrix's ``size`` counts them."""
        return self.shape[0] * self.shape[1]

    def generators(self) -> List[np.random.Generator]:
        """Each column's fresh ``requests`` stream."""
        return [RandomStreams(seed).stream("requests") for seed in self.seeds]

    def __iter__(self) -> Iterator[np.ndarray]:
        steps, clients = self.shape
        generators = self.generators()
        rows = min(steps, max(1, BLOCK_DRAWS // clients))
        # One uniform buffer, reused: column c's rows are contiguous.
        draws = np.empty(rows * clients)
        for start in range(0, steps, rows):
            yield self.block(generators,
                             draws[:min(rows, steps - start) * clients], start)

    def block(self, generators: Sequence[np.random.Generator],
              draws: np.ndarray, start: int) -> np.ndarray:
        """Requests ``start, start + 1, ...`` of each generator's column,
        as a ``(rows, clients)`` block: ``draws`` (the block's
        ``clients * rows`` buffer) takes each column's next ``rows``
        uniforms in one call, and the whole block inverts at once."""
        uniforms = draws.reshape(len(generators), -1)
        for column, generator in enumerate(generators):
            generator.random(out=uniforms[column])
        pages = self.distribution.invert(
            draws, out=np.empty(len(draws), dtype=self.dtype)
        ).reshape(uniforms.shape)
        if self.drift is not None:
            pages[...] = self.drift.rotate(pages, start)
        return pages.T


def draw_trace(config: ExperimentConfig, seed: int,
               num_requests: int) -> np.ndarray:
    """The pages of client ``seed``'s first ``num_requests`` requests
    under ``config``'s workload: the one-block, one-column case of
    :class:`TraceBlocks`."""
    trace = TraceBlocks(config, [seed], num_requests)
    return trace.block(trace.generators(), np.empty(num_requests), 0)[:, 0]


def structural_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the structural key — a stable cross-run identity.

    Two configs share a structural hash iff they broadcast the same
    program, regardless of client-side parameters (cache, noise, seed).
    """
    payload = json.dumps(structural_key(config), sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class BuildCache:
    """Memoised layout/schedule construction for one execution context,
    plus the last mapping and trace built.

    Each ``run_plans`` call (and each worker process) owns its own cache;
    entries are never shipped across process boundaries — workers
    rebuild on first use and reuse thereafter.
    """

    def __init__(self):
        self._built: Dict[Tuple, Tuple[DiskLayout, BroadcastSchedule]] = {}
        #: The last mapping and trace built, as ``(key, object)``.
        self._mapping: Optional[Tuple[Tuple, LogicalPhysicalMapping]] = None
        self._trace: Optional[Tuple[Tuple, RequestTrace]] = None
        #: Cache statistics, for the curious and for tests.
        self.hits = 0
        self.misses = 0
        self.mapping_hits = 0
        self.mapping_misses = 0
        self.trace_hits = 0
        self.trace_misses = 0

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

    def release(self, config: ExperimentConfig) -> None:
        """Drop ``config``'s layout and schedule, which the cache holds:
        a plan that asks for them again builds them anew."""
        del self._built[structural_key(config)]

    def mapping(
        self, config: ExperimentConfig, layout: DiskLayout
    ) -> LogicalPhysicalMapping:
        """The mapping for ``config``: the last one if its key matches.

        ``layout`` must be ``config``'s layout; the mapping reads only
        its disk sizes, which are part of the key.
        """
        key = _mapping_key(config)
        if self._mapping is not None and self._mapping[0] == key:
            self.mapping_hits += 1
            return self._mapping[1]
        mapping = config.build_mapping(layout, config.build_streams())
        self._mapping = (key, mapping)
        self.mapping_misses += 1
        return mapping

    def trace(self, config: ExperimentConfig, num_requests: int) -> RequestTrace:
        """``config``'s first ``num_requests`` requests: the last trace
        if its key matches."""
        key = _trace_key(config, num_requests)
        if self._trace is not None and self._trace[0] == key:
            self.trace_hits += 1
            return self._trace[1]
        trace = RequestTrace(draw_trace(config, config.seed, num_requests))
        self._trace = (key, trace)
        self.trace_misses += 1
        return trace

    def held(self) -> Dict[str, int]:
        """How many schedules, mappings and traces the cache holds now."""
        return {
            "schedules": len(self._built),
            "mappings": int(self._mapping is not None),
            "traces": int(self._trace is not None),
        }

    def __len__(self) -> int:
        return len(self._built)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BuildCache entries={len(self._built)} "
            f"hits={self.hits} misses={self.misses} "
            f"mapping_hits={self.mapping_hits} trace_hits={self.trace_hits}>"
        )
