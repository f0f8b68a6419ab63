"""Periodic broadcast schedules and their timing queries.

A :class:`BroadcastSchedule` is an immutable periodic sequence of slots,
each carrying a physical page id (or :data:`~repro.core.chunks.EMPTY_SLOT`
for padding).  Slot ``s`` of cycle ``k`` occupies real time
``[k*period + s, k*period + s + 1)`` in broadcast units, and its page is
usable by a client at the *completion* instant ``k*period + s + 1``.

The class pre-computes each page's occurrence list so the two timing
queries the simulators need are cheap:

* :meth:`next_arrival` — the first completion of a page after a given
  time.  Pages with a fixed inter-arrival gap (every page of a §2.2
  multidisk program — the property the paper proves in §2.1) answer
  with O(1) modular arithmetic from a cached ``(residue, gap)`` pair;
  irregular pages answer by :meth:`next_arrival_bisect`, an
  O(log occurrences) bisection that is also the reference
  implementation for the property tests and the perf gate.
* :meth:`expected_delay` — the closed-form mean wait of a uniformly
  arriving request, ``sum(g^2) / (2 * period)`` over the inter-arrival
  gaps ``g`` (the Bus Stop Paradox in formula form: for fixed gaps this is
  ``period / (2 * count)``; variance in the gaps strictly increases it).

See ``docs/PERFORMANCE.md`` for the hot-path design.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunks import EMPTY_SLOT
from repro.errors import ScheduleError

#: The two timing tiers of :meth:`BroadcastSchedule.next_arrival`, in
#: preference order: the §2.1 closed form, then bisection.
TIMING_TIERS = ("closed_form", "bisect")


class BroadcastSchedule:
    """An immutable periodic broadcast program."""

    def __init__(self, slots: Sequence[int], label: str = ""):
        slots = [int(s) for s in slots]
        if not slots:
            raise ScheduleError("a broadcast schedule needs at least one slot")
        if any(s < 0 and s != EMPTY_SLOT for s in slots):
            raise ScheduleError("slots must hold page ids >= 0 or EMPTY_SLOT")
        self._slots: Tuple[int, ...] = tuple(slots)
        self.label = label
        # Collect occurrence lists as plain python lists, then freeze
        # each page's list to an immutable sorted int64 array.
        collected: Dict[int, List[int]] = {}
        for index, page in enumerate(self._slots):
            if page != EMPTY_SLOT:
                collected.setdefault(page, []).append(index)
        if not collected:
            raise ScheduleError("schedule contains only empty slots")
        self._occurrences: Dict[int, np.ndarray] = {
            page: np.asarray(indices, dtype=np.int64)
            for page, indices in collected.items()
        }
        # Lazily-built timing structures (see docs/PERFORMANCE.md):
        # per-page (residue, gap) pairs for fixed-gap pages (None marks
        # irregular ones), plus the sorted index of non-empty slot
        # offsets the channel scans with.
        self._fixed_gaps: Dict[int, Optional[Tuple[int, int]]] = {}
        self._nonempty_slots: Optional[np.ndarray] = None
        self._regular_timing: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Per-tier query counters for profiling; None (the default) means
        # disabled and costs next_arrival a single identity check.
        self._tier_queries: Optional[Dict[str, int]] = None

    # -- structure ---------------------------------------------------------
    @property
    def slots(self) -> Tuple[int, ...]:
        """The page id (or EMPTY_SLOT) broadcast in each slot of one period."""
        return self._slots

    @property
    def period(self) -> int:
        """Length of the major cycle, in broadcast units."""
        return len(self._slots)

    @property
    def pages(self) -> List[int]:
        """Sorted list of distinct pages carried by the broadcast."""
        return sorted(self._occurrences)

    @property
    def num_pages(self) -> int:
        """Number of distinct pages carried by the broadcast."""
        return len(self._occurrences)

    @property
    def empty_slots(self) -> int:
        """Number of padding slots per period."""
        return self.period - sum(len(o) for o in self._occurrences.values())

    def __contains__(self, page: int) -> bool:
        return page in self._occurrences

    def __len__(self) -> int:
        return self.period

    def occurrences(self, page: int) -> np.ndarray:
        """Sorted slot indices (within one period) where ``page`` appears."""
        try:
            return self._occurrences[page]
        except KeyError:
            raise ScheduleError(
                f"page {page} never appears on broadcast {self.label!r}"
            ) from None

    def broadcasts_per_period(self, page: int) -> int:
        """How many times ``page`` is transmitted each major cycle."""
        return len(self.occurrences(page))

    def frequency(self, page: int) -> float:
        """Broadcast frequency of ``page`` in transmissions per broadcast unit.

        This is the paper's *X*: the fraction of broadcast slots carrying
        the page.
        """
        return self.broadcasts_per_period(page) / self.period

    # -- timing --------------------------------------------------------------
    def next_arrival(self, page: int, time: float) -> float:
        """First completion instant of ``page`` strictly after ``time``.

        A request issued exactly at a completion instant has missed that
        transmission and waits for the next one, which matches the
        "monitor the broadcast and wait for the item to arrive" semantics
        of §2.1.

        Completions are the integers ``c`` with slot ``(c-1) % period``
        carrying ``page``; the first one strictly after ``time`` is at
        ``base = floor(time) + 1`` plus a wait that depends only on the
        slot ``base`` starts in.  Two tiers answer it, in order of
        preference:

        1. fixed-gap pages (:meth:`fixed_gap`): ``(residue - base) %
           gap`` — O(1) integer arithmetic, no memory;
        2. irregular pages: :meth:`next_arrival_bisect`, the bisection.

        Both return the exact same instant (asserted by the hypothesis
        property tests).
        """
        queries = self._tier_queries
        entry = self._fixed_gaps.get(page)
        if entry is None and page not in self._fixed_gaps:
            entry = self.fixed_gap(page)
        if entry is None:
            if queries is not None:
                queries["bisect"] += 1
            return self.next_arrival_bisect(page, time)
        if queries is not None:
            queries["closed_form"] += 1
        residue, gap = entry
        base = math.floor(time) + 1
        return float(base + (residue - base) % gap)

    def fixed_gap(self, page: int) -> Optional[Tuple[int, int]]:
        """``(residue, gap)`` when ``page`` has a fixed inter-arrival gap.

        The §2.1 property in closed form: when the occurrences of
        ``page`` are equally spaced (gap ``g``, so ``g`` divides the
        period), its completion instants are exactly the integers
        congruent to ``first_occurrence + 1`` modulo ``g``, and the
        next one after any instant ``t`` is
        ``base + (residue - base) % g`` with ``base = floor(t) + 1``.
        Returns ``None`` for pages with irregular spacing (those use
        the bisection).  Cached after the first call.
        """
        entry = self._fixed_gaps.get(page)
        if entry is None and page not in self._fixed_gaps:
            occ = self.occurrences(page)
            count = len(occ)
            entry = None
            if self.period % count == 0:
                gap = self.period // count
                first = int(occ[0])
                # Equally spaced iff occ is the arithmetic progression
                # first + j*gap (the wrap gap is then gap as well,
                # because count * gap == period).
                if count == 1 or np.array_equal(
                    occ, first + gap * np.arange(count, dtype=np.int64)
                ):
                    entry = ((first + 1) % gap, gap)
            self._fixed_gaps[page] = entry
        return entry

    def next_arrival_bisect(self, page: int, time: float) -> float:
        """Reference :meth:`next_arrival`: bisection into the occurrences.

        The original implementation, kept verbatim as (a) the tier that
        times irregular pages and (b) the golden model the property
        tests, the ``fast-reference`` engine and
        ``benchmarks/bench_engine.py`` compare the closed form against.
        """
        occ = self.occurrences(page)
        cycle, phase = divmod(time, self.period)
        base = cycle * self.period
        # Completion of slot s is at s+1; we need s+1 > phase, i.e. s > phase-1.
        index = bisect_right(occ, phase - 1.0)
        if index < len(occ):
            candidate = base + float(occ[index]) + 1.0
            if candidate > time:
                return candidate
            index += 1
            if index < len(occ):
                return base + float(occ[index]) + 1.0
        return base + self.period + float(occ[0]) + 1.0

    def enable_timing_counters(self) -> None:
        """Start counting :meth:`next_arrival` queries per timing tier.

        Off by default: the counters cost :meth:`next_arrival` a dict
        increment per query, so only profiled runs (``--profile``)
        switch them on.  Idempotent — enabling twice keeps the
        accumulated counts.  Engines that time misses without calling
        :meth:`next_arrival` (the scalar loop's inlined closed form,
        direct :meth:`next_arrival_bisect` calls) report their own
        counts through :meth:`book_timing_queries`.
        """
        if self._tier_queries is None:
            self._tier_queries = dict.fromkeys(TIMING_TIERS, 0)

    def book_timing_queries(self, counts: Mapping[str, int]) -> None:
        """Add queries an engine answered itself to the tier counters.

        A no-op unless :meth:`enable_timing_counters` was called.
        """
        queries = self._tier_queries
        if queries is not None:
            for tier, count in counts.items():
                queries[tier] += count

    def timing_queries(self) -> Dict[str, int]:
        """Per-tier ``next_arrival`` query counts (zeros when disabled)."""
        if self._tier_queries is None:
            return dict.fromkeys(TIMING_TIERS, 0)
        return dict(self._tier_queries)

    def timing_stats(self) -> Dict[str, object]:
        """Occupancy of the lazily-built timing structures.

        Useful for asserting that a shared schedule (via
        :class:`~repro.exec.build.BuildCache`) reuses its structures
        across sweep points instead of rebuilding them.  The
        ``queries`` sub-dict carries the per-tier counts of
        :meth:`timing_queries` — all zeros unless
        :meth:`enable_timing_counters` was called.
        """
        return {
            "fixed_gap_entries": len(self._fixed_gaps),
            "nonempty_index_built": int(self._nonempty_slots is not None),
            "queries": self.timing_queries(),
        }

    def wait_time(self, page: int, time: float) -> float:
        """Delay a request issued at ``time`` experiences for ``page``."""
        return self.next_arrival(page, time) - time

    # -- batched timing ------------------------------------------------------
    def regular_timing(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-page ``(residue, gap)`` arrays for vectorized timing.

        Index ``p`` of the two immutable int64 arrays holds the
        :meth:`fixed_gap` pair of physical page ``p``; a gap of ``0``
        marks pages that are irregular (or absent from the broadcast)
        and must take a scalar tier instead.  Built once over every
        carried page and cached — the batch engine's columnar clock
        arithmetic indexes these directly.
        """
        cached = self._regular_timing
        if cached is None:
            size = max(self._occurrences) + 1
            residue = np.zeros(size, dtype=np.int64)
            gap = np.zeros(size, dtype=np.int64)
            for page in self._occurrences:
                entry = self.fixed_gap(page)
                if entry is not None:
                    residue[page], gap[page] = entry
            residue.flags.writeable = False
            gap.flags.writeable = False
            cached = (residue, gap)
            self._regular_timing = cached
        return cached

    def next_arrival_batch(
        self, pages: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`next_arrival` over parallel arrays.

        ``pages[i]`` is queried at ``times[i]``; the result array holds
        the same completion instants scalar queries would return.
        Fixed-gap pages (every page of a §2.2 multidisk program) are
        answered in one closed-form array expression; irregular pages
        fall back to scalar :meth:`next_arrival` element by element, so
        they take the bisection tier.  Tier counters,
        when enabled, attribute the vectorized elements to
        ``closed_form`` in bulk and let the scalar fallback count its
        own dispatches.
        """
        pages = np.asarray(pages, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        residue, gap = self.regular_timing()
        size = len(gap)
        clipped = np.clip(pages, 0, size - 1)
        gaps = gap.take(clipped)
        regular = (pages == clipped) & (pages >= 0) & (gaps > 0)
        base = np.floor(times).astype(np.int64) + 1
        safe_gaps = np.where(regular, gaps, 1)
        arrivals = (
            base + (residue.take(clipped) - base) % safe_gaps
        ).astype(np.float64)
        if not regular.all():
            for index in np.nonzero(~regular)[0]:
                arrivals[index] = self.next_arrival(
                    int(pages[index]), float(times[index])
                )
        queries = self._tier_queries
        if queries is not None:
            queries["closed_form"] += int(regular.sum())
        return arrivals

    def gaps(self, page: int) -> np.ndarray:
        """Inter-arrival gaps (slot counts) between successive broadcasts."""
        occ = self.occurrences(page)
        if len(occ) == 1:
            return np.asarray([self.period], dtype=np.int64)
        diffs = np.diff(occ)
        wrap = self.period - occ[-1] + occ[0]
        return np.concatenate([diffs, [wrap]])

    def has_fixed_interarrival(self, page: int) -> bool:
        """True when every gap between broadcasts of ``page`` is equal."""
        gaps = self.gaps(page)
        return bool(np.all(gaps == gaps[0]))

    def expected_delay(self, page: int) -> float:
        """Mean wait for ``page`` of a request at a uniform random time.

        With gaps ``g_1..g_k`` summing to the period ``P``, a request
        lands in gap ``j`` with probability ``g_j / P`` and then waits
        ``g_j / 2`` on average, giving ``sum(g_j^2) / (2 P)``.
        """
        gaps = self.gaps(page).astype(np.float64)
        return float(np.sum(gaps * gaps) / (2.0 * self.period))

    def delay_variance(self, page: int) -> float:
        """Variance of the wait for ``page`` under uniform random arrival.

        Within a gap of length ``g`` the wait is Uniform(0, g); mixing over
        gaps weighted by ``g/P`` gives ``E[W^2] = sum(g^3) / (3 P)``.
        """
        gaps = self.gaps(page).astype(np.float64)
        second_moment = float(np.sum(gaps**3) / (3.0 * self.period))
        mean = self.expected_delay(page)
        return second_moment - mean * mean

    def delay_cdf(self, page: int, wait: float) -> float:
        """P(W <= wait) for a uniformly-arriving request for ``page``.

        A request landing in a gap of length ``g`` (probability ``g/P``)
        waits Uniform(0, g]; conditioning on the gap gives
        ``P(W <= w) = (1/P) * sum_i min(w, g_i)``.
        """
        if wait < 0:
            return 0.0
        gaps = self.gaps(page).astype(np.float64)
        return float(np.minimum(wait, gaps).sum() / self.period)

    def delay_quantile(self, page: int, fraction: float) -> float:
        """The ``fraction``-quantile of the wait for ``page``.

        Computed exactly by inverting the piecewise-linear CDF: with the
        gaps sorted ascending, the CDF's slope drops by one gap at each
        gap length.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ScheduleError(
                f"quantile fraction must be in [0, 1], got {fraction}"
            )
        gaps = np.sort(self.gaps(page).astype(np.float64))
        period = float(self.period)
        target = fraction * period
        accumulated = 0.0  # sum of min(w, g_i) achieved so far
        previous = 0.0
        for index, gap in enumerate(gaps):
            active = len(gaps) - index  # gaps still growing with w
            segment = (gap - previous) * active
            if accumulated + segment >= target:
                return previous + (target - accumulated) / active
            accumulated += segment
            previous = gap
        return float(gaps[-1])

    def worst_case_delay(self, page: int) -> float:
        """The maximum possible wait for ``page``: its largest gap."""
        return float(self.gaps(page).max())

    def expected_delay_under(self, probabilities: Mapping[int, float]) -> float:
        """Access-probability-weighted mean delay (the paper's Table 1 metric).

        ``probabilities`` maps page id to access probability; pages with
        zero probability may be omitted.
        """
        total = 0.0
        for page, probability in probabilities.items():
            if probability:
                total += probability * self.expected_delay(page)
        return total

    # -- slot iteration -------------------------------------------------------
    @property
    def nonempty_slots(self) -> np.ndarray:
        """Sorted slot offsets (one period) that carry a page.

        Built lazily on first use and cached; the channel uses it to
        jump straight to the next interesting completion instead of
        scanning the period slot by slot.
        """
        index = self._nonempty_slots
        if index is None:
            index = np.asarray(
                [s for s, page in enumerate(self._slots) if page != EMPTY_SLOT],
                dtype=np.int64,
            )
            index.flags.writeable = False
            self._nonempty_slots = index
        return index

    def next_nonempty_completion(self, time: float) -> float:
        """First completion instant strictly after ``time`` of any page.

        The non-empty analogue of :meth:`next_arrival`: the first
        integer ``c > time`` whose slot ``(c-1) % period`` carries a
        page, found by a searchsorted into :attr:`nonempty_slots` with
        a period wrap — O(log period) instead of the O(period) forward
        scan the channel used to do.
        """
        index = self.nonempty_slots
        base = math.floor(time) + 1
        slot = (base - 1) % self.period
        position = int(np.searchsorted(index, slot, side="left"))
        if position == len(index):
            return float(base + self.period - slot + int(index[0]))
        return float(base + int(index[position]) - slot)

    def page_at(self, slot_time: float) -> Optional[int]:
        """Page occupying the slot that contains instant ``slot_time``.

        Returns ``None`` for padding slots.
        """
        slot = int(math.floor(slot_time)) % self.period
        page = self._slots[slot]
        return None if page == EMPTY_SLOT else page

    def completions_in(self, start: float, stop: float):
        """Yield ``(time, page)`` completions in ``(start, stop]``, in order.

        Used by the process-oriented engine and the prefetching client,
        which observe every page going by rather than only the ones they
        asked for.
        """
        first = int(math.floor(start))  # slot whose completion is first+1
        last = int(math.ceil(stop)) - 1
        for slot in range(first, last + 1):
            completion = slot + 1.0
            if completion <= start or completion > stop:
                continue
            page = self._slots[slot % self.period]
            if page != EMPTY_SLOT:
                yield completion, page

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastSchedule {self.label!r} period={self.period} "
            f"pages={self.num_pages} empty={self.empty_slots}>"
        )


class BroadcastProgram:
    """A C-row broadcast program: one :class:`BroadcastSchedule` per channel.

    The paper fixes a single broadcast channel; a multi-channel server
    (after the multi-channel data-broadcast model of Kenyon, Schabanel
    and Young, cs/0205012) partitions the database across ``C`` parallel
    channels, each carrying its own §2.2 periodic schedule at the same
    per-channel slot rate.  A client owns a single-frequency tuner and
    listens to exactly one channel at a time; switching channels costs a
    configurable number of slots (see ``client/client.py``).

    The rows must *partition* the pages: every page appears on exactly
    one channel.  Timing queries delegate to the owning row, so a
    program duck-types the read-only surface of a single schedule
    (``next_arrival``, ``fixed_gap``, ``frequency``, ``__contains__``,
    ``timing_stats``, ...) and slots into the engines and monitors
    unchanged.  A one-row program is byte-identical to its single
    schedule; the ``channels == 1`` configuration path never constructs
    a program at all, so the legacy pipeline is untouched.
    """

    def __init__(self, channels: Sequence[BroadcastSchedule], label: str = ""):
        rows = tuple(channels)
        if not rows:
            raise ScheduleError("a broadcast program needs at least one channel")
        for index, row in enumerate(rows):
            if not isinstance(row, BroadcastSchedule):
                raise ScheduleError(
                    f"channel {index} is {type(row).__name__}, "
                    "expected BroadcastSchedule"
                )
        channel_of: Dict[int, int] = {}
        for index, row in enumerate(rows):
            for page in row.pages:
                if page in channel_of:
                    raise ScheduleError(
                        f"page {page} appears on channels "
                        f"{channel_of[page]} and {index}; channel rows "
                        "must partition the pages"
                    )
                channel_of[page] = index
        self._channels = rows
        self._channel_of = channel_of
        self._channel_array: Optional[np.ndarray] = None
        self._regular_timing: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.label = label or f"program[{'x'.join(r.label or '?' for r in rows)}]"

    # -- structure -----------------------------------------------------------
    @property
    def channels(self) -> Tuple[BroadcastSchedule, ...]:
        """The per-channel schedule rows, channel 0 first."""
        return self._channels

    @property
    def num_channels(self) -> int:
        return len(self._channels)

    @property
    def pages(self) -> Tuple[int, ...]:
        """All pages carried by the program, across every channel."""
        return tuple(sorted(self._channel_of))

    @property
    def num_pages(self) -> int:
        return len(self._channel_of)

    @property
    def period(self) -> int:
        """Longest per-channel major cycle (the program repeats every
        ``lcm`` of the rows, but reporting uses the slowest row)."""
        return max(row.period for row in self._channels)

    @property
    def total_slots(self) -> int:
        """Aggregate slots per reporting period across all channels."""
        return sum(row.period for row in self._channels)

    @property
    def empty_slots(self) -> int:
        return sum(row.empty_slots for row in self._channels)

    @property
    def utilisation(self) -> float:
        """Fraction of all channel slots carrying a page."""
        return 1.0 - self.empty_slots / self.total_slots

    def channel_utilisation(self) -> Tuple[float, ...]:
        """Per-channel slot utilisation, channel 0 first."""
        return tuple(
            1.0 - row.empty_slots / row.period for row in self._channels
        )

    def channel_schedule(self, index: int) -> BroadcastSchedule:
        """The schedule broadcast on channel ``index``."""
        try:
            return self._channels[index]
        except IndexError:
            raise ScheduleError(
                f"channel {index} outside program "
                f"[0, {self.num_channels})"
            ) from None

    def channel_of(self, page: int) -> int:
        """Index of the channel carrying ``page``."""
        try:
            return self._channel_of[page]
        except KeyError:
            raise ScheduleError(
                f"page {page} never appears on program {self.label!r}"
            ) from None

    def channel_map(self) -> Dict[int, int]:
        """A fresh ``page -> channel`` dict (for tuner hot loops)."""
        return dict(self._channel_of)

    def channel_array(self) -> np.ndarray:
        """Dense ``page -> channel`` int64 lookup for vectorized tuners.

        Index ``p`` holds the channel carrying physical page ``p``;
        pages absent from the program map to channel 0 (the scalar
        tuner raises on them, but a columnar engine only ever queries
        carried pages, so the filler is never observed).  Built once and
        cached read-only.
        """
        cached = self._channel_array
        if cached is None:
            size = max(self._channel_of) + 1
            cached = np.zeros(size, dtype=np.int64)
            for page, channel in self._channel_of.items():
                cached[page] = channel
            cached.flags.writeable = False
            self._channel_array = cached
        return cached

    def __contains__(self, page: int) -> bool:
        return page in self._channel_of

    def __len__(self) -> int:
        return self.period

    # -- delegated timing ----------------------------------------------------
    def schedule_of(self, page: int) -> BroadcastSchedule:
        """The row that carries ``page`` (its timing authority)."""
        return self._channels[self.channel_of(page)]

    def occurrences(self, page: int) -> np.ndarray:
        return self.schedule_of(page).occurrences(page)

    def broadcasts_per_period(self, page: int) -> int:
        return self.schedule_of(page).broadcasts_per_period(page)

    def frequency(self, page: int) -> float:
        """Transmissions of ``page`` per broadcast unit *on its channel*.

        Channels run in parallel at the same slot rate, so this is
        directly comparable with the single-channel figure the cache
        policies consume.
        """
        return self.schedule_of(page).frequency(page)

    def next_arrival(self, page: int, time: float) -> float:
        return self.schedule_of(page).next_arrival(page, time)

    def next_arrival_bisect(self, page: int, time: float) -> float:
        return self.schedule_of(page).next_arrival_bisect(page, time)

    def fixed_gap(self, page: int) -> Optional[Tuple[int, int]]:
        return self.schedule_of(page).fixed_gap(page)

    def wait_time(self, page: int, time: float) -> float:
        return self.next_arrival(page, time) - time

    def expected_delay(self, page: int) -> float:
        return self.schedule_of(page).expected_delay(page)

    # -- batched timing ------------------------------------------------------
    def regular_timing(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-page ``(residue, gap)`` arrays over the whole C-row grid.

        The rows partition the pages, so the per-row
        :meth:`BroadcastSchedule.regular_timing` arrays merge into one
        dense pair indexed by physical page — identical in shape and
        meaning to the single-schedule form.  Each entry is the owning
        row's :meth:`fixed_gap` pair; a gap of ``0`` marks irregular
        (or absent) pages that must take a scalar tier.  Residues are
        defined modulo their own gap, so the closed form needs no
        common period across rows.
        """
        cached = self._regular_timing
        if cached is None:
            size = max(self._channel_of) + 1
            residue = np.zeros(size, dtype=np.int64)
            gap = np.zeros(size, dtype=np.int64)
            for page, channel in self._channel_of.items():
                entry = self._channels[channel].fixed_gap(page)
                if entry is not None:
                    residue[page], gap[page] = entry
            residue.flags.writeable = False
            gap.flags.writeable = False
            cached = (residue, gap)
            self._regular_timing = cached
        return cached

    def next_arrival_batch(
        self, pages: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`next_arrival` over parallel arrays.

        Same contract as
        :meth:`BroadcastSchedule.next_arrival_batch`, over the merged
        C-row timing grid: fixed-gap pages (every page of a §2.2
        per-channel row) are answered in one closed-form expression and
        irregular pages fall back to scalar :meth:`next_arrival` on
        their owning row.  Tier counters, when enabled, attribute the
        vectorized elements to each row's ``closed_form`` tier by
        channel; the scalar fallback counts its own dispatches.
        """
        pages = np.asarray(pages, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        residue, gap = self.regular_timing()
        size = len(gap)
        clipped = np.clip(pages, 0, size - 1)
        gaps = gap.take(clipped)
        regular = (pages == clipped) & (pages >= 0) & (gaps > 0)
        base = np.floor(times).astype(np.int64) + 1
        safe_gaps = np.where(regular, gaps, 1)
        arrivals = (
            base + (residue.take(clipped) - base) % safe_gaps
        ).astype(np.float64)
        if not regular.all():
            for index in np.nonzero(~regular)[0]:
                arrivals[index] = self.next_arrival(
                    int(pages[index]), float(times[index])
                )
        if any(row._tier_queries is not None for row in self._channels):
            channels = self.channel_array().take(clipped[regular])
            counts = np.bincount(channels, minlength=self.num_channels)
            for index, row in enumerate(self._channels):
                queries = row._tier_queries
                if queries is not None:
                    queries["closed_form"] += int(counts[index])
        return arrivals

    # -- observability -------------------------------------------------------
    def enable_timing_counters(self) -> None:
        for row in self._channels:
            row.enable_timing_counters()

    def book_timing_queries(self, counts: Mapping[str, int]) -> None:
        """Book engine-answered queries on channel 0's row.

        The scalar engine books one program-wide count per run, so the
        program total (:meth:`timing_queries`) is exact while the
        per-row split of those counts is not tracked.
        """
        self._channels[0].book_timing_queries(counts)

    def timing_queries(self) -> Dict[str, int]:
        totals = dict.fromkeys(TIMING_TIERS, 0)
        for row in self._channels:
            for tier, count in row.timing_queries().items():
                totals[tier] += count
        return totals

    def timing_stats(self) -> Dict[str, object]:
        """Aggregate of the per-row :meth:`BroadcastSchedule.timing_stats`."""
        stats: Dict[str, object] = {
            "fixed_gap_entries": 0,
            "nonempty_index_built": 0,
        }
        for row in self._channels:
            for key, value in row.timing_stats().items():
                if key != "queries":
                    stats[key] += value
        stats["queries"] = self.timing_queries()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastProgram {self.label!r} channels={self.num_channels} "
            f"period={self.period} pages={self.num_pages}>"
        )
