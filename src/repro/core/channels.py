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
    channel (ties to the lowest index), where a page's load is its
    disk's relative frequency (its slot share in the §2.2 interleave).
    This balances per-channel broadcast bandwidth, the multi-channel
    analogue of the paper's equal-slot-share disks.  The pages of one
    disk share a load, so the walk is computed as one merge per disk.

    **Conflict-aware refinement** — hill-climb single-page moves over
    the hottest pages, minimising the analytic :func:`objective`

    ``sum_c period_c * S_c  +  retune_cost * (1 - sum_c (q_c / Q)^2)``

    where ``S_c = sum_{p in c} prob(p) / (2 * rel_freq(p))`` makes the
    first term the probability-weighted mean delay (each page's §2.1
    fixed-gap wait is ``period_c / (2 * rel_freq)``), ``q_c`` is the
    probability mass on channel ``c`` and the second term is the
    steady-state chance two consecutive misses land on different
    channels — the expected retune surcharge.

    Each round scores every move of a candidate page to another
    channel, in (candidate, target) order, and commits the first move
    with the lowest gain if that gain is below ``-1e-9``.  A channel's
    period after a move depends only on (channel, disk, one page more
    or less), so each round starts from a table of those periods and a
    move costs one table read and a few float operations.

    Rounding and ties: scoring a move has always applied it to the
    running ``S`` and ``q`` and undone it again, so afterwards the two
    channels hold ``(x - w) + w`` and ``(x + w) - w`` rather than ``x``,
    and the next move is scored from those values.  Pages of one Zipf
    region share a probability, so their moves tie in real arithmetic
    and this rounding picks the winner.  The climb keeps it: without
    it, 17 of the 720 preset cases (C=4, server Zipf estimate) commit
    a different move.  For the same reason every float sum adds left
    to right (:func:`add_in_order`): the builtin ``sum`` compensates
    float rounding from Python 3.12, which changes 30 of those cases.

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
from repro.core.disks import DiskLayout, disk_index_array
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


def _page_freqs(layout: DiskLayout) -> np.ndarray:
    """Per-page relative frequency, indexed by physical page id."""
    return np.repeat(np.asarray(layout.rel_freqs, dtype=np.int64), layout.sizes)


def _page_probabilities(
    layout: DiskLayout, probabilities: Optional[Mapping[int, float]]
) -> np.ndarray:
    """Per-page access probability, uniform when ``probabilities`` is None.

    A key that is not a page of the layout, or a value that is not a
    finite number in [0, 1], raises :class:`ConfigurationError`: the
    climb would otherwise drop the page, stop at the greedy split (NaN
    gains never improve) or chase a meaningless objective.
    """
    total = layout.total_pages
    if probabilities is None:
        return np.full(total, 1.0 / total)
    prob = np.zeros(total)
    for page, value in probabilities.items():
        if not (isinstance(page, (int, np.integer)) and 0 <= page < total):
            raise ConfigurationError(
                f"access probability {value!r} given for page {page!r}, "
                f"outside the layout's pages [0, {total})"
            )
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"access probability of page {page} is {value!r}; "
                "it must be a finite number in [0, 1]"
            )
        prob[page] = value
    return prob


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


def _period_table(
    layout: DiskLayout, counts: Sequence[int]
) -> Tuple[int, List[int], List[int]]:
    """A channel's period, and its period with one page more or less.

    ``plus[d]`` is the period after adding a page of disk ``d``;
    ``minus[d]`` after removing one (0 where the channel holds none).
    """
    plus: List[int] = []
    minus: List[int] = []
    for disk in range(len(counts)):
        grown = list(counts)
        grown[disk] += 1
        plus.append(_period_of_counts(layout, grown))
        shrunk = list(counts)
        shrunk[disk] -= 1
        minus.append(_period_of_counts(layout, shrunk) if counts[disk] else 0)
    return _period_of_counts(layout, counts), plus, minus


def _greedy_split(layout: DiskLayout, num_channels: int) -> List[List[int]]:
    """Bandwidth-proportional greedy: hottest-first, least-loaded channel.

    A page's bandwidth demand is its disk's relative frequency (its slot
    share per minor cycle), so channel loads track broadcast bandwidth.
    Ties break to the lowest channel index — fully deterministic.

    Every page of a disk adds the same load ``freq``, so the disk's
    picks are the first ``size`` terms of the sequences
    ``load_c + m * freq``, merged by (value, channel).  A term is
    ``level * freq + residue`` with ``residue = load_c % freq``, so the
    merge sorts by (level, residue, channel) every term up to the
    lowest level ``top`` that holds ``size`` of them: fewer than
    ``size + num_channels`` terms.
    """
    channel = np.arange(num_channels)
    loads = np.zeros(num_channels, dtype=np.int64)
    picks = []
    for size, freq in layout:
        level, residue = np.divmod(loads, freq)
        # Over the j lowest levels, the terms up to level k number
        # j * (k + 1) - (their level sum); ``top`` is the least k at
        # which any j reaches ``size``.
        lowest = np.sort(level)
        top = ((size - 1 + np.cumsum(lowest)) // (channel + 1)).min()
        count = np.maximum(top - level + 1, 0)
        owner = np.repeat(channel, count)
        first = np.cumsum(count) - count
        term = level[owner] + np.arange(owner.size) - first[owner]
        chosen = owner[np.lexsort((owner, residue[owner], term))[:size]]
        picks.append(chosen)
        loads += np.bincount(chosen, minlength=num_channels) * freq
    channel_of = np.concatenate(picks)
    return [np.flatnonzero(channel_of == c).tolist() for c in range(num_channels)]


def add_in_order(values: Sequence[float]) -> float:
    """``values`` added left to right, as ``sum`` adds floats up to 3.11.

    Python 3.12's ``sum`` compensates the rounding of each addition,
    and 3.11's does not; adding in order gives every version the
    programs the climb has always committed (see the module docstring).
    Any fold whose floats reach a committed artifact (the hybrid
    study's population means, the multi-channel smoke's speedups) adds
    through here for the same reason.  ``np.cumsum`` adds in order,
    since every prefix is one of its outputs; ``np.sum`` adds pairwise
    and would round differently.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _channel_sums(
    layout: DiskLayout, rows: Sequence[np.ndarray], prob: np.ndarray
) -> Tuple[List[List[int]], List[float], List[float], float]:
    """Per channel: disk counts, delay factor ``S`` and mass ``q``; total mass.

    The sums run in each row's page order through :func:`add_in_order`,
    as the climb has always added them.
    """
    disk_of = disk_index_array(layout)
    weight = prob / (2.0 * _page_freqs(layout))
    counts = [
        np.bincount(disk_of[row], minlength=layout.num_disks).tolist()
        for row in rows
    ]
    factor = [add_in_order(weight[row]) for row in rows]
    mass = [add_in_order(prob[row]) for row in rows]
    return counts, factor, mass, add_in_order(prob)


def objective(
    layout: DiskLayout,
    channels: Sequence[Sequence[int]],
    *,
    probabilities: Optional[Mapping[int, float]] = None,
    retune_cost: float = 1.0,
) -> float:
    """The refinement's objective for one partition of the pages.

    ``sum_c period_c * S_c + retune_cost * (1 - sum_c (q_c / Q)^2)``
    (see the module docstring), with ``probabilities`` read as
    :func:`assign_channels` reads them (uniform when omitted).
    """
    prob = _page_probabilities(layout, probabilities)
    rows = [np.asarray(pages, dtype=np.int64) for pages in channels]
    counts, factor, mass, total = _channel_sums(layout, rows, prob)
    delay = add_in_order([
        _period_of_counts(layout, row) * s for row, s in zip(counts, factor)
    ])
    if total <= 0.0 or retune_cost == 0.0:
        return delay
    stay = add_in_order([(q / total) ** 2 for q in mass])
    return delay + retune_cost * (1.0 - stay)


def _refine_split(
    layout: DiskLayout,
    channels: List[List[int]],
    prob: np.ndarray,
    retune_cost: float,
) -> List[List[int]]:
    """Conflict-aware hill climb over single-page moves (deterministic).

    ``prob`` is the per-page probability array; the rounds, tables and
    tie rule are described in the module docstring.
    """
    num_channels = len(channels)
    rows = [np.asarray(pages, dtype=np.int64) for pages in channels]
    counts, factor, mass, total = _channel_sums(layout, rows, prob)
    sizes = [len(row) for row in rows]
    channel_of = np.empty(layout.total_pages, dtype=np.int64)
    for index, row in enumerate(rows):
        channel_of[row] = index
    pool = np.argsort(-prob, kind="stable")[:_REFINE_CANDIDATES]
    weight = prob[pool] / (2.0 * _page_freqs(layout)[pool])
    candidates = list(zip(
        pool.tolist(),
        disk_index_array(layout)[pool].tolist(),
        weight.tolist(),
        prob[pool].tolist(),
    ))
    owner = channel_of[pool].tolist()
    retune = total > 0.0 and retune_cost != 0.0
    # (q_c / Q) ** 2 per channel, kept in step with ``mass``.
    shares = [(q / total) ** 2 for q in mass] if retune else []
    tables = [_period_table(layout, row) for row in counts]
    for _ in range(_REFINE_ROUNDS):
        best_gain = -1e-9  # require a strict improvement
        best_move: Optional[Tuple[int, int]] = None
        for index, (_page, disk, w, p) in enumerate(candidates):
            source = owner[index]
            if sizes[source] <= 1:
                continue  # never empty a channel
            period_s, _, minus_s = tables[source]
            shrunk = minus_s[disk]
            for target in range(num_channels):
                if target == source:
                    continue
                period_t, plus_t, _ = tables[target]
                fs = factor[source]
                ft = factor[target]
                fs_moved = fs - w
                ft_moved = ft + w
                # Scoring has always applied the move and undone it,
                # leaving (x - w) + w and (x + w) - w behind; the next
                # scores read those values, and they decide exact ties
                # between equal-probability pages.
                factor[source] = fs_moved + w
                factor[target] = ft_moved - w
                gain = (shrunk * fs_moved + plus_t[disk] * ft_moved) - (
                    period_s * fs + period_t * ft
                )
                if retune:
                    # The shares add in order, as in add_in_order; a
                    # loop over C floats is cheaper than a call here.
                    stay = 0.0
                    for share in shares:
                        stay += share
                    before = retune_cost * (1.0 - stay)
                    ms = mass[source] - p
                    mt = mass[target] + p
                    shares[source] = (ms / total) ** 2
                    shares[target] = (mt / total) ** 2
                    stay = 0.0
                    for share in shares:
                        stay += share
                    after = retune_cost * (1.0 - stay)
                    mass[source] = ms = ms + p
                    mass[target] = mt = mt - p
                    shares[source] = (ms / total) ** 2
                    shares[target] = (mt / total) ** 2
                    gain += after - before
                if gain < best_gain:
                    best_gain = gain
                    best_move = (index, target)
        if best_move is None:
            break
        index, target = best_move
        page, disk, w, p = candidates[index]
        source = owner[index]
        counts[source][disk] -= 1
        counts[target][disk] += 1
        sizes[source] -= 1
        sizes[target] += 1
        factor[source] -= w
        factor[target] += w
        mass[source] -= p
        mass[target] += p
        if retune:
            shares[source] = (mass[source] / total) ** 2
            shares[target] = (mass[target] / total) ** 2
        owner[index] = target
        channel_of[page] = target
        tables[source] = _period_table(layout, counts[source])
        tables[target] = _period_table(layout, counts[target])
    return [np.flatnonzero(channel_of == c).tolist() for c in range(num_channels)]


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
    and the tuner's ``retune_cost``.  A ``probabilities`` key outside
    ``[0, total_pages)`` or a value that is not a finite number in
    [0, 1] raises :class:`ConfigurationError`.
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
    prob = _page_probabilities(layout, probabilities)
    channels = _greedy_split(layout, num_channels)
    if assignment == "conflict" and num_channels > 1:
        channels = _refine_split(layout, channels, prob, retune_cost)
    return ChannelAssignment(
        layout=layout, channels=tuple(tuple(pages) for pages in channels)
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
    physical = np.sort(np.asarray(pages, dtype=np.int64))
    if not physical.size:
        raise ConfigurationError("a channel must carry at least one page")
    if physical[0] < 0 or physical[-1] >= layout.total_pages:
        raise ConfigurationError(
            f"channel pages must lie in [0, {layout.total_pages}), got "
            f"{int(physical[0])}..{int(physical[-1])}"
        )
    counts = np.bincount(
        disk_index_array(layout)[physical], minlength=layout.num_disks
    ).tolist()
    sub_sizes = [count for count in counts if count]
    sub_freqs = [
        freq for freq, count in zip(layout.rel_freqs, counts) if count
    ]
    sub_layout = DiskLayout(sub_sizes, sub_freqs)
    slots = np.asarray(ChunkPlan.for_layout(sub_layout).interleave())
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
