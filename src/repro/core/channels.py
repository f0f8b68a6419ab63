"""Channel assignment: partitioning a broadcast program across C channels.

The paper broadcasts over a single channel.  A multi-channel server
(Kenyon, Schabanel and Young's multi-channel data-broadcast model,
cs/0205012) runs ``C`` parallel channels at the same per-channel slot
rate and must decide which pages each channel carries.  Clients own a
single-frequency tuner — they listen to one channel at a time and pay a
retune cost to switch — so the assignment shapes both the per-channel
cycle lengths *and* how often a hot workload has to hop channels
(conflict-avoidance placement in the spirit of 2112.00449: pages that
are co-hot for the same clients should be spread across channels so
each channel's cycle stays short, but not so finely that every other
request retunes).

Two-stage optimiser, both stages deterministic:

:func:`assign_channels`
    **Greedy bandwidth-proportional split** — walk the pages
    hottest-to-coldest and put each on the currently least-loaded
    channel, where a page's load is its disk's relative frequency
    (its slot share in the §2.2 interleave).  This balances per-channel
    broadcast bandwidth, the multi-channel analogue of the paper's
    equal-slot-share disks.

    **Conflict-aware refinement** — hill-climb single-page moves over
    the hottest pages, minimising the analytic objective

    ``sum_c period_c * S_c  +  retune_cost * (1 - sum_c (q_c / Q)^2)``

    where ``S_c = sum_{p in c} prob(p) / (2 * rel_freq(p))`` makes the
    first term the probability-weighted mean delay (each page's §2.1
    fixed-gap wait is ``period_c / (2 * rel_freq)``), ``q_c`` is the
    probability mass on channel ``c`` and the second term is the
    steady-state chance two consecutive misses land on different
    channels — the expected retune surcharge.  Candidate moves are
    evaluated incrementally in O(num_disks).

:func:`build_program`
    Assignment plus per-channel §2.2 schedule construction: each
    channel's pages, grouped by their original disk, form a *virtual*
    sub-layout that goes through the unchanged
    :class:`~repro.core.chunks.ChunkPlan` interleave; virtual ids map
    back to physical pages in ascending order.  Every page therefore
    keeps a fixed inter-arrival gap of ``channel_period / rel_freq`` on
    its channel, and a one-channel program reproduces the single-channel
    slot sequence byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunks import EMPTY_SLOT, ChunkPlan, lcm_many
from repro.core.disks import DiskLayout
from repro.core.schedule import BroadcastProgram, BroadcastSchedule
from repro.errors import ConfigurationError

#: Hot-page pool considered by the refinement pass.  Moves outside the
#: hottest pages cannot change the objective materially (their
#: probability mass is negligible by construction of the layouts).
_REFINE_CANDIDATES = 128

#: Upper bound on refinement rounds (one move per round); the climb
#: almost always converges in far fewer.
_REFINE_ROUNDS = 64

ASSIGNMENT_STRATEGIES = ("bandwidth", "conflict")


@dataclass(frozen=True)
class ChannelAssignment:
    """A partition of a layout's pages across broadcast channels.

    ``channels[c]`` is the ascending tuple of physical pages carried by
    channel ``c``.  Together the tuples cover every page exactly once.
    """

    layout: DiskLayout
    channels: Tuple[Tuple[int, ...], ...]

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def channel_map(self) -> Dict[int, int]:
        """A fresh ``page -> channel`` dict."""
        mapping: Dict[int, int] = {}
        for index, pages in enumerate(self.channels):
            for page in pages:
                mapping[page] = index
        return mapping


def _page_freqs(layout: DiskLayout) -> List[int]:
    """Per-page relative frequency, indexed by physical page id."""
    freqs: List[int] = []
    for size, freq in layout:
        freqs.extend([freq] * size)
    return freqs


def _counts_per_disk(layout: DiskLayout, pages: Sequence[int]) -> List[int]:
    """How many of ``pages`` live on each of the layout's disks."""
    counts = [0] * layout.num_disks
    bounds = [stop for _, stop in layout.disk_ranges()]
    disk = 0
    for page in sorted(pages):
        while page >= bounds[disk]:
            disk += 1
        counts[disk] += 1
    return counts


def _period_of_counts(layout: DiskLayout, counts: Sequence[int]) -> int:
    """Major cycle of the §2.2 program over a sub-layout.

    ``counts[d]`` pages of disk ``d`` (empty disks dropped): the chunk
    algebra gives ``max_chunks = lcm(freqs present)`` and a minor cycle
    of ``sum(ceil(count / (max_chunks // freq)))`` slots.
    """
    present = [
        (freq, count)
        for freq, count in zip(layout.rel_freqs, counts)
        if count
    ]
    if not present:
        return 0
    max_chunks = lcm_many([freq for freq, _ in present])
    minor = sum(
        math.ceil(count / (max_chunks // freq)) for freq, count in present
    )
    return max_chunks * minor


def _greedy_split(layout: DiskLayout, num_channels: int) -> List[List[int]]:
    """Bandwidth-proportional greedy: hottest-first, least-loaded channel.

    A page's bandwidth demand is its disk's relative frequency (its slot
    share per minor cycle), so channel loads track broadcast bandwidth.
    Ties break to the lowest channel index — fully deterministic.
    """
    freqs = _page_freqs(layout)
    loads = [0] * num_channels
    channels: List[List[int]] = [[] for _ in range(num_channels)]
    for page in range(layout.total_pages):
        target = loads.index(min(loads))
        channels[target].append(page)
        loads[target] += freqs[page]
    return channels


class _RefineState:
    """Incremental bookkeeping for the conflict-aware hill climb.

    Per channel: the per-disk page counts (enough to recompute the
    channel period in O(num_disks)), the delay factor
    ``S = sum prob / (2 * rel_freq)`` and the probability mass ``q``.
    """

    def __init__(
        self,
        layout: DiskLayout,
        channels: Sequence[Sequence[int]],
        probabilities: Mapping[int, float],
        retune_cost: float,
    ):
        self.layout = layout
        self.retune_cost = retune_cost
        self.freqs = _page_freqs(layout)
        self.prob = [probabilities.get(page, 0.0) for page in range(layout.total_pages)]
        self.total_mass = sum(self.prob)
        self.channel_of = {}
        self.counts: List[List[int]] = []
        self.sizes: List[int] = []
        self.delay_factor: List[float] = []
        self.mass: List[float] = []
        for index, pages in enumerate(channels):
            self.counts.append(_counts_per_disk(layout, pages))
            self.sizes.append(len(pages))
            self.delay_factor.append(
                sum(self.prob[p] / (2.0 * self.freqs[p]) for p in pages)
            )
            self.mass.append(sum(self.prob[p] for p in pages))
            for page in pages:
                self.channel_of[page] = index

    def _delay_term(self, channel: int) -> float:
        period = _period_of_counts(self.layout, self.counts[channel])
        return period * self.delay_factor[channel]

    def _retune_term(self) -> float:
        if self.total_mass <= 0.0 or self.retune_cost == 0.0:
            return 0.0
        stay = sum((q / self.total_mass) ** 2 for q in self.mass)
        return self.retune_cost * (1.0 - stay)

    def objective(self) -> float:
        return (
            sum(self._delay_term(c) for c in range(len(self.counts)))
            + self._retune_term()
        )

    def move_gain(self, page: int, target: int) -> float:
        """Objective delta of moving ``page`` to ``target`` (negative = better)."""
        source = self.channel_of[page]
        before = self._delay_term(source) + self._delay_term(target)
        before_retune = self._retune_term()
        self._apply(page, source, target)
        after = self._delay_term(source) + self._delay_term(target)
        after_retune = self._retune_term()
        self._apply(page, target, source)
        return (after - before) + (after_retune - before_retune)

    def _apply(self, page: int, source: int, target: int) -> None:
        disk = self.layout.disk_of_page(page)
        weight = self.prob[page] / (2.0 * self.freqs[page])
        self.counts[source][disk] -= 1
        self.counts[target][disk] += 1
        self.sizes[source] -= 1
        self.sizes[target] += 1
        self.delay_factor[source] -= weight
        self.delay_factor[target] += weight
        self.mass[source] -= self.prob[page]
        self.mass[target] += self.prob[page]
        self.channel_of[page] = target

    def commit(self, page: int, target: int) -> None:
        self._apply(page, self.channel_of[page], target)


def _refine_split(
    layout: DiskLayout,
    channels: List[List[int]],
    probabilities: Mapping[int, float],
    retune_cost: float,
) -> List[List[int]]:
    """Conflict-aware hill climb over single-page moves (deterministic)."""
    num_channels = len(channels)
    state = _RefineState(layout, channels, probabilities, retune_cost)
    candidates = sorted(
        range(layout.total_pages),
        key=lambda p: (-state.prob[p], p),
    )[:_REFINE_CANDIDATES]
    for _ in range(_REFINE_ROUNDS):
        best_gain = -1e-9  # require a strict improvement
        best_move: Optional[Tuple[int, int]] = None
        for page in candidates:
            source = state.channel_of[page]
            if state.sizes[source] <= 1:
                continue  # never empty a channel
            for target in range(num_channels):
                if target == source:
                    continue
                gain = state.move_gain(page, target)
                if gain < best_gain:
                    best_gain = gain
                    best_move = (page, target)
        if best_move is None:
            break
        state.commit(*best_move)
    refined: List[List[int]] = [[] for _ in range(num_channels)]
    for page in range(layout.total_pages):
        refined[state.channel_of[page]].append(page)
    return refined


def assign_channels(
    layout: DiskLayout,
    num_channels: int,
    *,
    probabilities: Optional[Mapping[int, float]] = None,
    assignment: str = "conflict",
    retune_cost: float = 1.0,
) -> ChannelAssignment:
    """Partition the layout's pages across ``num_channels`` channels.

    ``assignment`` selects the strategy: ``"bandwidth"`` stops after the
    greedy bandwidth-proportional split; ``"conflict"`` (the default)
    additionally runs the conflict-aware refinement pass, guided by
    ``probabilities`` (page -> access probability; uniform when omitted)
    and the tuner's ``retune_cost``.
    """
    num_channels = int(num_channels)
    if num_channels < 1:
        raise ConfigurationError(
            f"need at least one channel, got {num_channels}"
        )
    if num_channels > layout.total_pages:
        raise ConfigurationError(
            f"{num_channels} channels for {layout.total_pages} pages: "
            "every channel must carry at least one page"
        )
    if assignment not in ASSIGNMENT_STRATEGIES:
        raise ConfigurationError(
            f"unknown assignment strategy {assignment!r}; "
            f"valid strategies: {', '.join(ASSIGNMENT_STRATEGIES)}"
        )
    if retune_cost < 0:
        raise ConfigurationError(
            f"retune cost must be >= 0, got {retune_cost}"
        )
    channels = _greedy_split(layout, num_channels)
    if assignment == "conflict" and num_channels > 1:
        if probabilities is None:
            uniform = 1.0 / layout.total_pages
            probabilities = {
                page: uniform for page in range(layout.total_pages)
            }
        channels = _refine_split(layout, channels, probabilities, retune_cost)
    return ChannelAssignment(
        layout=layout,
        channels=tuple(tuple(sorted(pages)) for pages in channels),
    )


def channel_schedule(
    layout: DiskLayout, pages: Sequence[int], *, label: str = ""
) -> BroadcastSchedule:
    """The §2.2 schedule one channel broadcasts for its slice of pages.

    The channel's pages, grouped by their original disk, form a virtual
    sub-layout (empty disks dropped; the non-increasing frequency order
    is inherited from the parent) that goes through the unchanged
    :class:`~repro.core.chunks.ChunkPlan` interleave.  Virtual page ids
    are then mapped back to physical ids in ascending order, preserving
    hottest-to-coldest within the channel.
    """
    pages = sorted(int(page) for page in pages)
    if not pages:
        raise ConfigurationError("a channel must carry at least one page")
    counts = _counts_per_disk(layout, pages)
    sub_sizes = [count for count in counts if count]
    sub_freqs = [
        freq for freq, count in zip(layout.rel_freqs, counts) if count
    ]
    sub_layout = DiskLayout(sub_sizes, sub_freqs)
    slots = np.asarray(ChunkPlan.for_layout(sub_layout).interleave())
    physical = np.asarray(pages, dtype=np.int64)
    translated = np.where(
        slots == EMPTY_SLOT, EMPTY_SLOT, physical[np.maximum(slots, 0)]
    )
    return BroadcastSchedule(translated, label=label)


def build_program(
    layout: DiskLayout,
    num_channels: int,
    *,
    probabilities: Optional[Mapping[int, float]] = None,
    assignment: str = "conflict",
    retune_cost: float = 1.0,
    label: str = "",
) -> BroadcastProgram:
    """Assign channels and build the full C-row broadcast program."""
    plan = assign_channels(
        layout,
        num_channels,
        probabilities=probabilities,
        assignment=assignment,
        retune_cost=retune_cost,
    )
    base = label or f"multidisk{layout.describe()}"
    rows = [
        channel_schedule(layout, pages, label=f"{base}[ch{index}]")
        for index, pages in enumerate(plan.channels)
    ]
    return BroadcastProgram(rows, label=f"{base}x{num_channels}")
