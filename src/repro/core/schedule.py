"""Periodic broadcast schedules and their timing queries.

A :class:`BroadcastSchedule` is an immutable periodic sequence of slots,
each carrying a physical page id (or :data:`~repro.core.chunks.EMPTY_SLOT`
for padding).  Slot ``s`` of cycle ``k`` occupies real time
``[k*period + s, k*period + s + 1)`` in broadcast units, and its page is
usable by a client at the *completion* instant ``k*period + s + 1``.

The constructor builds every per-page table in one vectorised pass:
a stable argsort of the slot array groups each page's occurrences into
one read-only array, and dense tables indexed by page id hold each
page's broadcast count, its first occurrence and, for pages with a
fixed inter-arrival gap, the ``(residue, gap)`` pair of the closed
form.  Every per-page query is then an O(1) read, and the two timing
queries the simulators need are cheap:

* :meth:`next_arrival` — the first completion of a page after a given
  time.  Pages with a fixed inter-arrival gap (every page of a §2.2
  multidisk program — the property the paper proves in §2.1) answer
  with O(1) modular arithmetic from their ``(residue, gap)`` pair;
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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.chunks import EMPTY_SLOT
from repro.errors import ScheduleError

#: The largest page id a schedule accepts.  Every per-page table is
#: indexed by page id, so a schedule allocates about 32 bytes for each
#: id up to its largest; this bound caps that at about 128 MiB.
MAX_PAGE_ID = 2**22 - 1


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class BroadcastSchedule:
    """An immutable periodic broadcast program."""

    def __init__(self, slots: Sequence[int], label: str = ""):
        try:
            array = np.array(slots, dtype=np.int64)
        except OverflowError:
            raise ScheduleError(
                f"a page id exceeds the largest allowed page id {MAX_PAGE_ID}"
            ) from None
        if array.ndim != 1:
            raise ScheduleError("slots must be a flat sequence of page ids")
        if not array.size:
            raise ScheduleError("a broadcast schedule needs at least one slot")
        if int(array.min()) < EMPTY_SLOT:
            raise ScheduleError("slots must hold page ids >= 0 or EMPTY_SLOT")
        top = int(array.max())
        if top == EMPTY_SLOT:
            raise ScheduleError("schedule contains only empty slots")
        if top > MAX_PAGE_ID:
            raise ScheduleError(
                f"page id {top} exceeds the largest allowed page id "
                f"{MAX_PAGE_ID}: per-page tables are indexed by page id"
            )
        self.label = label
        period = len(array)
        self._slot_array = _frozen(array)
        self._slots: Optional[Tuple[int, ...]] = None
        self._nonempty_slots: Optional[np.ndarray] = None

        # Shifting EMPTY_SLOT (-1) to 0 lets one bincount give the
        # padding count and every page's broadcast count.
        counts = np.bincount(array + 1)
        self._empty = int(counts[0])
        counts = counts[1:]
        # The stable sort lists each page's slot indices in ascending
        # order, pages in ascending order, after the padding slots.
        order = np.argsort(array, kind="stable")[self._empty:]
        starts = np.cumsum(counts) - counts
        present = counts > 0
        self._num_pages = int(np.count_nonzero(present))

        # A page has a fixed gap iff its count divides the period and
        # every step between its successive occurrences equals
        # period // count (the wrap step is then that gap as well).
        gap = np.where(present, period // np.maximum(counts, 1), 0)
        regular = present & (gap * counts == period)
        paged = array[order]
        steps = np.diff(order)
        uneven = (paged[1:] == paged[:-1]) & (steps != gap[paged[:-1]])
        regular[paged[:-1][uneven]] = False
        gap[~regular] = 0
        first = order[np.minimum(starts, len(order) - 1)]
        residue = np.where(regular, (first + 1) % np.maximum(gap, 1), 0)

        self._order = _frozen(order)
        self._counts = _frozen(counts)
        self._residue = _frozen(residue)
        self._gap = _frozen(gap)
        # Scalar queries read the tables through memoryviews, which
        # return Python ints without boxing a NumPy scalar.
        self._period = period
        self._count_of = memoryview(self._counts)
        self._start_of = memoryview(_frozen(starts))
        self._residue_of = memoryview(self._residue)
        self._gap_of = memoryview(self._gap)

    # -- structure ---------------------------------------------------------
    @property
    def slots(self) -> Tuple[int, ...]:
        """The page id (or EMPTY_SLOT) broadcast in each slot of one period.

        Built from the slot array on first use and cached.
        """
        slots = self._slots
        if slots is None:
            slots = self._slots = tuple(self._slot_array.tolist())
        return slots

    @property
    def period(self) -> int:
        """Length of the major cycle, in broadcast units."""
        return self._period

    @property
    def pages(self) -> List[int]:
        """Sorted list of distinct pages carried by the broadcast."""
        return np.flatnonzero(self._counts).tolist()

    @property
    def num_pages(self) -> int:
        """Number of distinct pages carried by the broadcast."""
        return self._num_pages

    @property
    def empty_slots(self) -> int:
        """Number of padding slots per period."""
        return self._empty

    def _count(self, page: int) -> int:
        """Broadcasts of ``page`` per period; raises if it never airs."""
        try:
            count = self._count_of[page] if page >= 0 else 0
        except IndexError:
            count = 0
        if count:
            return count
        raise ScheduleError(
            f"page {page} never appears on broadcast {self.label!r}"
        )

    def __contains__(self, page: int) -> bool:
        try:
            return page >= 0 and self._count_of[page] > 0
        except IndexError:
            return False

    def __len__(self) -> int:
        return self.period

    def occurrences(self, page: int) -> np.ndarray:
        """Sorted slot indices (within one period) where ``page`` appears.

        A read-only slice of the schedule's occurrence array.
        """
        count = self._count(page)
        start = self._start_of[page]
        return self._order[start:start + count]

    def broadcasts_per_period(self, page: int) -> int:
        """How many times ``page`` is transmitted each major cycle."""
        return self._count(page)

    def frequency(self, page: int) -> float:
        """Broadcast frequency of ``page`` in transmissions per broadcast unit.

        This is the paper's *X*: the fraction of broadcast slots carrying
        the page.
        """
        return self._count(page) / self._period

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
        try:
            gap = self._gap_of[page] if page >= 0 else 0
        except IndexError:
            gap = 0
        if not gap:
            return self.next_arrival_bisect(page, time)
        base = math.floor(time) + 1
        return float(base + (self._residue_of[page] - base) % gap)

    def fixed_gap(self, page: int) -> Optional[Tuple[int, int]]:
        """``(residue, gap)`` when ``page`` has a fixed inter-arrival gap.

        The §2.1 property in closed form: when the occurrences of
        ``page`` are equally spaced (gap ``g``, so ``g`` divides the
        period), its completion instants are exactly the integers
        congruent to ``first_occurrence + 1`` modulo ``g``, and the
        next one after any instant ``t`` is
        ``base + (residue - base) % g`` with ``base = floor(t) + 1``.
        Returns ``None`` for pages with irregular spacing (those use
        the bisection).  A read of the table built with the schedule.
        """
        self._count(page)
        gap = self._gap_of[page]
        return (self._residue_of[page], gap) if gap else None

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

    def wait_time(self, page: int, time: float) -> float:
        """Delay a request issued at ``time`` experiences for ``page``."""
        return self.next_arrival(page, time) - time

    # -- batched timing ------------------------------------------------------
    def regular_timing(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-page ``(residue, gap)`` arrays for vectorized timing.

        Index ``p`` of the two immutable int64 arrays, one entry per
        page id up to the largest carried, holds the :meth:`fixed_gap`
        pair of physical page ``p``; a gap of ``0`` marks pages that are
        irregular (or absent from the broadcast) and must take a scalar
        tier instead.  These are the tables the constructor built — the
        batch engine's columnar clock arithmetic and the fast engine's
        per-run page lists index them directly.
        """
        return self._residue, self._gap

    def regular_arrivals(
        self, pages: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """:meth:`next_arrival` of fixed-gap pages, unchecked.

        ``pages[i]`` is queried at ``times[i]`` in the closed form
        ``base + (residue - base) % gap`` with ``base = floor(time) +
        1``, read from the :meth:`regular_timing` tables.  Every page
        must index those tables with a nonzero gap: callers check that
        once (:meth:`next_arrival_batch` per call, the batch engine per
        run) rather than on every query.
        """
        base = np.floor(times).astype(np.int64) + 1
        return (
            base + (self._residue[pages] - base) % self._gap[pages]
        ).astype(np.float64)

    def next_arrival_batch(
        self, pages: np.ndarray, times: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`next_arrival` over parallel arrays.

        ``pages[i]`` is queried at ``times[i]``; the result array holds
        the same completion instants scalar queries would return.
        Fixed-gap pages (every page of a §2.2 multidisk program) are
        answered by :meth:`regular_arrivals` in one array expression;
        irregular pages fall back to scalar :meth:`next_arrival` element
        by element, so they take the bisection.
        :class:`BroadcastProgram` binds this same body over its merged
        C-row arrays.
        """
        pages = np.asarray(pages, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        gap = self._gap
        clipped = np.minimum(np.maximum(pages, 0), len(gap) - 1)
        regular = (pages == clipped) & (gap[clipped] > 0)
        arrivals = np.empty(pages.shape, dtype=np.float64)
        arrivals[regular] = self.regular_arrivals(
            pages[regular], times[regular]
        )
        for index in np.nonzero(~regular)[0]:
            arrivals[index] = self.next_arrival(
                int(pages[index]), float(times[index])
            )
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

        Built on first use and cached; the channel uses it to jump
        straight to the next interesting completion instead of scanning
        the period slot by slot.
        """
        index = self._nonempty_slots
        if index is None:
            index = self._nonempty_slots = _frozen(
                np.flatnonzero(self._slot_array != EMPTY_SLOT)
            )
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
        page = self._slot_array.item(slot)
        return None if page == EMPTY_SLOT else page

    def completions_in(self, start: float, stop: float):
        """Yield ``(time, page)`` completions in ``(start, stop]``, in order.

        Used by the PT prefetching cache (:mod:`repro.client.prefetch`),
        which observes every page going by rather than only the ones it
        asked for.
        """
        first = int(math.floor(start))  # slot whose completion is first+1
        last = int(math.ceil(stop)) - 1
        slots = self.slots
        period = self.period
        for slot in range(first, last + 1):
            completion = slot + 1.0
            if completion <= start or completion > stop:
                continue
            page = slots[slot % period]
            if page != EMPTY_SLOT:
                yield completion, page

    def __reduce__(self):
        # Memoryviews do not pickle: rebuild the tables from the slots.
        return BroadcastSchedule, (self._slot_array, self.label)

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
    one channel.  The constructor merges the rows' per-page tables into
    dense program-wide ones (owning channel, ``(residue, gap)``), and
    the other per-page queries delegate to the owning row, so a
    program duck-types the read-only surface of a single schedule
    (``next_arrival``, ``fixed_gap``, ``frequency``, ``__contains__``,
    ...) and slots into the engines and monitors unchanged.  A one-row
    program is byte-identical to its single schedule; the
    ``channels == 1`` configuration path never constructs a program at
    all, so the legacy pipeline is untouched.
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
        # Merge the rows' per-page tables into dense program-wide ones:
        # the owning channel (-1 where no row carries the page) and the
        # owning row's (residue, gap) pair.
        size = max(len(row._counts) for row in rows)
        channel = np.full(size, -1, dtype=np.int64)
        residue = np.zeros(size, dtype=np.int64)
        gap = np.zeros(size, dtype=np.int64)
        for index, row in enumerate(rows):
            pages = np.flatnonzero(row._counts)
            taken = pages[channel[pages] >= 0]
            if len(taken):
                page = int(taken[0])
                raise ScheduleError(
                    f"page {page} appears on channels "
                    f"{channel[page]} and {index}; channel rows "
                    "must partition the pages"
                )
            channel[pages] = index
            residue[pages] = row._residue[pages]
            gap[pages] = row._gap[pages]
        self._channels = rows
        self._channel = _frozen(channel)
        self._channel_array = _frozen(np.maximum(channel, 0))
        self._residue = _frozen(residue)
        self._gap = _frozen(gap)
        self._channel_of = memoryview(self._channel)
        self._residue_of = memoryview(self._residue)
        self._gap_of = memoryview(self._gap)
        self._num_pages = sum(row.num_pages for row in rows)
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
        return tuple(np.flatnonzero(self._channel >= 0).tolist())

    @property
    def num_pages(self) -> int:
        return self._num_pages

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
            channel = self._channel_of[page] if page >= 0 else -1
        except IndexError:
            channel = -1
        if channel >= 0:
            return channel
        raise ScheduleError(
            f"page {page} never appears on program {self.label!r}"
        )

    def channel_map(self) -> Dict[int, int]:
        """A fresh ``page -> channel`` dict (for tuner hot loops)."""
        pages = np.flatnonzero(self._channel >= 0)
        return dict(zip(pages.tolist(), self._channel[pages].tolist()))

    def channel_array(self) -> np.ndarray:
        """Dense ``page -> channel`` int64 lookup for vectorized tuners.

        Index ``p`` holds the channel carrying physical page ``p``;
        pages absent from the program map to channel 0 (the scalar
        tuner raises on them, but a columnar engine only ever queries
        carried pages, so the filler is never observed).  Built with the
        program, read-only.
        """
        return self._channel_array

    def __contains__(self, page: int) -> bool:
        try:
            return page >= 0 and self._channel_of[page] >= 0
        except IndexError:
            return False

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
        """The owning row's :meth:`BroadcastSchedule.fixed_gap` pair,
        read from the merged table."""
        self.channel_of(page)
        gap = self._gap_of[page]
        return (self._residue_of[page], gap) if gap else None

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
        common period across rows.  Merged when the program is built.
        """
        return self._residue, self._gap

    #: One body for both classes: the ``(residue, gap)`` tables are the
    #: merged C-row grid here, and irregular pages fall back to scalar
    #: :meth:`next_arrival` on their owning row.
    regular_arrivals = BroadcastSchedule.regular_arrivals
    next_arrival_batch = BroadcastSchedule.next_arrival_batch

    def __reduce__(self):
        # Memoryviews do not pickle: rebuild the tables from the rows.
        return BroadcastProgram, (self._channels, self.label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BroadcastProgram {self.label!r} channels={self.num_channels} "
            f"period={self.period} pages={self.num_pages}>"
        )


def frequency_array(
    schedule: Union[BroadcastSchedule, BroadcastProgram],
) -> np.ndarray:
    """Broadcast frequency per physical page (0.0 for absent pages).

    :meth:`BroadcastSchedule.frequency` is ``count / period`` of the row
    carrying the page; this is that quotient for every page at once,
    indexed like :meth:`~BroadcastSchedule.regular_timing`.  Counts and
    periods are exact in float64, so each entry is the same correctly
    rounded float the scalar query returns (for a fixed-gap page also
    ``1 / gap``).
    """
    rows = (
        schedule.channels if isinstance(schedule, BroadcastProgram)
        else (schedule,)
    )
    frequency = np.zeros(len(schedule.regular_timing()[1]), dtype=np.float64)
    for row in rows:
        counts = row._counts
        np.divide(counts, row._period, out=frequency[:len(counts)],
                  where=counts > 0)
    return frequency
