"""Channel assignment against the loops it ran before its period tables.

``assign_channels`` used to walk the greedy split page by page and to
score each move of the conflict-aware climb by applying it to an
incremental state (``_RefineState``) and undoing it, with a fresh
period computation for every score.  Those loops are kept here, as they
were, as the reference: on the preset cases where equal-probability
pages tie, and on hypothesis-drawn layouts and estimates, the
table-driven climb and the merged greedy split must return the same
channels.  ``scripts/multichannel_smoke.py`` holds every preset case to
:func:`reference_assign_channels` as well.
"""

import builtins
import math
import operator
from functools import reduce
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import _greedy_split, assign_channels
from repro.core.chunks import lcm_many
from repro.core.disks import DiskLayout
from repro.experiments.config import DISK_PRESETS, ExperimentConfig
from repro.workload.zipf import ZipfRegionDistribution

_REFINE_CANDIDATES = 128
_REFINE_ROUNDS = 64


def add_in_order(values) -> float:
    """Left-to-right float addition: the builtin ``sum`` up to Python 3.11.

    The climb has always added its sums this way; 3.12's compensated
    ``sum`` rounds differently and would move the ties.
    """
    return reduce(operator.add, values, 0.0)


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
    """Major cycle of the §2.2 program over a sub-layout."""
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


def reference_greedy_split(
    layout: DiskLayout, num_channels: int
) -> List[List[int]]:
    """Bandwidth-proportional greedy: hottest-first, least-loaded channel."""
    freqs = _page_freqs(layout)
    loads = [0] * num_channels
    channels: List[List[int]] = [[] for _ in range(num_channels)]
    for page in range(layout.total_pages):
        target = loads.index(min(loads))
        channels[target].append(page)
        loads[target] += freqs[page]
    return channels


class _RefineState:
    """Incremental bookkeeping for the conflict-aware hill climb."""

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
        self.total_mass = add_in_order(self.prob)
        self.channel_of = {}
        self.counts: List[List[int]] = []
        self.sizes: List[int] = []
        self.delay_factor: List[float] = []
        self.mass: List[float] = []
        for index, pages in enumerate(channels):
            self.counts.append(_counts_per_disk(layout, pages))
            self.sizes.append(len(pages))
            self.delay_factor.append(add_in_order(
                self.prob[p] / (2.0 * self.freqs[p]) for p in pages
            ))
            self.mass.append(add_in_order(self.prob[p] for p in pages))
            for page in pages:
                self.channel_of[page] = index

    def _delay_term(self, channel: int) -> float:
        period = _period_of_counts(self.layout, self.counts[channel])
        return period * self.delay_factor[channel]

    def _retune_term(self) -> float:
        if self.total_mass <= 0.0 or self.retune_cost == 0.0:
            return 0.0
        stay = add_in_order((q / self.total_mass) ** 2 for q in self.mass)
        return self.retune_cost * (1.0 - stay)

    def objective(self) -> float:
        return (
            add_in_order(self._delay_term(c) for c in range(len(self.counts)))
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


def reference_refine_split(
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


def reference_assign_channels(
    layout: DiskLayout,
    num_channels: int,
    probabilities: Optional[Mapping[int, float]],
    retune_cost: float,
) -> Tuple[Tuple[int, ...], ...]:
    """The conflict assignment as the loops above computed it."""
    channels = reference_greedy_split(layout, num_channels)
    if num_channels > 1:
        if probabilities is None:
            uniform = 1.0 / layout.total_pages
            probabilities = {
                page: uniform for page in range(layout.total_pages)
            }
        channels = reference_refine_split(
            layout, channels, probabilities, retune_cost
        )
    return tuple(tuple(sorted(pages)) for pages in channels)


def server_estimate(layout: DiskLayout) -> Mapping[int, float]:
    """The Zipf estimate the config layer hands the assignment."""
    return ExperimentConfig(
        disk_sizes=layout.sizes, rel_freqs=layout.rel_freqs
    )._server_probabilities(layout)


#: C=4 preset cases with the server's Zipf estimate where a climb that
#: scores moves without the apply-and-undo rounding commits another
#: move: (preset, Δ, retune cost).
TIE_CASES = [("D1", 2, 1.0)] + [
    (preset, delta, retune_cost)
    for retune_cost in (1.0, 2.5)
    for preset, delta in (
        ("D1", 3), ("D1", 4), ("D1", 5), ("D1", 6), ("D1", 7),
        ("D4", 1), ("D5", 1), ("D5", 3),
    )
]


@pytest.mark.parametrize("preset,delta,retune_cost", TIE_CASES)
def test_tie_cases_match_the_reference(preset, delta, retune_cost):
    layout = DiskLayout.from_delta(DISK_PRESETS[preset], delta)
    estimate = server_estimate(layout)
    expected = reference_assign_channels(layout, 4, estimate, retune_cost)
    assigned = assign_channels(
        layout, 4, probabilities=estimate, retune_cost=retune_cost
    )
    assert assigned.channels == expected


def compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12, for running it on any version.

    As in CPython 3.12: ints add exactly while every item is an ``int``;
    from the first ``float`` on, ``float`` items add Neumaier-compensated
    and ints that fit a C long add plainly; the first item of any other
    type (a NumPy scalar, say) folds the compensation in, and everything
    from it on adds plainly.  It never calls the builtin ``sum``, so a
    test can install it as ``builtins.sum``.
    """
    items = iter(values)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total = total + item
                continue
            if type(item) is float:
                added = total + item
                if abs(total) >= abs(item):
                    compensation += (total - added) + item
                else:
                    compensation += (item - added) + total
                total = added
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            compensation = 0.0
            total = total + item
            break
        if compensation and math.isfinite(compensation):
            total += compensation
    for item in items:
        total = total + item
    return total


def test_compensated_sum_rounds_differently():
    assert compensated_sum([0.1] * 10) == 1.0
    assert add_in_order([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([3, 4], 5) == 12
    # A NumPy scalar leaves the compensated loop, as in CPython 3.12.
    assert compensated_sum([np.float64(0.1)] * 10) == 0.9999999999999999
    assert compensated_sum([[1], [2]], []) == [1, 2]


#: The tie cases at C=4, and the D5 programs at C=2 and C=4 that the
#: multi-channel study and the cache-less fleet benchmark run.
SUM_CASES = [
    (preset, delta, 4, retune_cost)
    for preset, delta, retune_cost in TIE_CASES
] + [
    ("D5", delta, channels, 1.0)
    for channels in (2, 4)
    for delta in range(8)
    if ("D5", delta, 1.0) not in TIE_CASES or channels == 2
]


@pytest.mark.parametrize("preset,delta,channels,retune_cost", SUM_CASES)
def test_assignments_do_not_depend_on_the_builtin_sum(
    preset, delta, channels, retune_cost, monkeypatch
):
    """Python 3.12's compensated ``sum`` as the builtin changes nothing."""
    layout = DiskLayout.from_delta(DISK_PRESETS[preset], delta)
    estimate = server_estimate(layout)

    def assignments():
        return (
            assign_channels(
                layout, channels,
                probabilities=estimate, retune_cost=retune_cost,
            ).channels,
            reference_assign_channels(
                layout, channels, estimate, retune_cost
            ),
        )

    today = assignments()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert assignments() == today


@st.composite
def estimates(draw, total_pages):
    """Zipf over regions of 2+ pages (so pages tie), uniform, or None."""
    kind = draw(st.sampled_from(("zipf", "uniform", "none")))
    if kind == "none":
        return None
    if kind == "uniform":
        access = draw(st.integers(min_value=1, max_value=total_pages))
        return {page: 1.0 / access for page in range(access)}
    region = draw(st.integers(min_value=2, max_value=min(10, total_pages)))
    regions = draw(st.integers(min_value=1, max_value=total_pages // region))
    theta = draw(st.sampled_from((0.5, 0.95, 1.5)))
    probabilities = ZipfRegionDistribution(
        regions * region, region, theta
    ).probabilities()
    return {page: float(value) for page, value in enumerate(probabilities)}


@st.composite
def assignment_cases(draw):
    num_disks = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(
        st.integers(min_value=1, max_value=60),
        min_size=num_disks, max_size=num_disks,
    ).filter(lambda sizes: sum(sizes) >= 2))
    layout = DiskLayout.from_delta(sizes, draw(st.integers(0, 7)))
    num_channels = draw(
        st.integers(min_value=2, max_value=min(4, layout.total_pages))
    )
    retune_cost = draw(st.sampled_from((0.0, 0.5, 1.0, 2.5)))
    return layout, num_channels, draw(estimates(layout.total_pages)), \
        retune_cost


@given(assignment_cases())
@settings(max_examples=60, deadline=None)
def test_drawn_assignments_match_the_reference(case):
    layout, num_channels, probabilities, retune_cost = case
    assigned = assign_channels(
        layout, num_channels,
        probabilities=probabilities, retune_cost=retune_cost,
    )
    assert assigned.channels == reference_assign_channels(
        layout, num_channels, probabilities, retune_cost
    )


@st.composite
def greedy_cases(draw):
    """Any non-increasing frequencies, and up to one channel per page."""
    num_disks = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(st.lists(
        st.integers(min_value=1, max_value=40),
        min_size=num_disks, max_size=num_disks,
    ))
    freqs = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=50),
        min_size=num_disks, max_size=num_disks,
    )), reverse=True)
    layout = DiskLayout(sizes, freqs)
    num_channels = draw(st.integers(1, layout.total_pages))
    return layout, num_channels


@given(greedy_cases())
@settings(max_examples=200, deadline=None)
def test_greedy_merge_matches_the_page_walk(case):
    layout, num_channels = case
    assert _greedy_split(layout, num_channels) == reference_greedy_split(
        layout, num_channels
    )
