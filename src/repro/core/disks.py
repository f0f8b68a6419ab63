"""Disk layouts: the partitioning of pages onto broadcast "disks".

A :class:`DiskLayout` captures the first three steps of the §2.2 program
generation algorithm: pages are ordered hottest-to-coldest, partitioned
into ranges ("disks"), and each disk is given an integer relative
broadcast frequency.  Disk 0 is the fastest; the last disk is the slowest
(the paper numbers them 1..N; we use 0-based indices in code and 1-based
labels only in reports).

The paper's experiments organise the space of relative frequencies with a
single knob Δ (``delta``)::

    rel_freq(i) / rel_freq(N) = (N - i) * Δ + 1        (1-based i)

so Δ=0 is a flat broadcast and larger Δ spins the fast disks faster.
:meth:`DiskLayout.from_delta` implements that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DiskLayout:
    """Sizes and integer relative frequencies of the broadcast disks.

    Parameters
    ----------
    sizes:
        Number of pages on each disk, fastest first.  Pages are implicitly
        numbered ``0 .. sum(sizes)-1`` hottest-to-coldest; disk ``i`` holds
        the contiguous range starting after all faster disks.
    rel_freqs:
        Positive integer broadcast frequencies relative to one another
        (§2.2 step 3).  They must be non-increasing: a "fast" disk that
        spins slower than a later disk would contradict the
        hottest-to-coldest ordering.
    """

    sizes: Tuple[int, ...]
    rel_freqs: Tuple[int, ...]

    def __init__(self, sizes: Sequence[int], rel_freqs: Sequence[int]):
        sizes = tuple(int(s) for s in sizes)
        rel_freqs = tuple(int(f) for f in rel_freqs)
        if not sizes:
            raise ConfigurationError("a disk layout needs at least one disk")
        if len(sizes) != len(rel_freqs):
            raise ConfigurationError(
                f"{len(sizes)} disk sizes but {len(rel_freqs)} relative frequencies"
            )
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"disk sizes must be positive, got {sizes}")
        if any(f < 1 for f in rel_freqs):
            raise ConfigurationError(
                f"relative frequencies must be positive integers, got {rel_freqs}"
            )
        if any(a < b for a, b in zip(rel_freqs, rel_freqs[1:])):
            raise ConfigurationError(
                f"relative frequencies must be non-increasing "
                f"(fastest disk first), got {rel_freqs}"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "rel_freqs", rel_freqs)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_delta(cls, sizes: Sequence[int], delta: int) -> "DiskLayout":
        """Build a layout using the paper's Δ-rule (§4.2).

        With N disks (1-based), ``rel_freq(i) = (N - i) * Δ + 1`` relative
        to the slowest disk.  Δ=0 yields a flat broadcast; for a 3-disk
        layout Δ=1 gives speeds 3:2:1 and Δ=3 gives 7:4:1, matching the
        paper's examples.
        """
        delta = int(delta)
        if delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {delta}")
        n = len(sizes)
        rel_freqs = [(n - i) * delta + 1 for i in range(1, n + 1)]
        return cls(sizes, rel_freqs)

    @classmethod
    def flat(cls, total_pages: int) -> "DiskLayout":
        """A single-disk (flat) layout over ``total_pages`` pages."""
        return cls((total_pages,), (1,))

    # -- derived quantities --------------------------------------------------
    @property
    def num_disks(self) -> int:
        """Number of disks (the paper's NumDisks)."""
        return len(self.sizes)

    @property
    def total_pages(self) -> int:
        """Total pages across all disks (the paper's ServerDBSize)."""
        return sum(self.sizes)

    @property
    def is_flat(self) -> bool:
        """True when every disk spins at the same speed."""
        return len(set(self.rel_freqs)) == 1

    def disk_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """``(start, stop)`` physical-page range of each disk (stop exclusive)."""
        ranges = []
        start = 0
        for size in self.sizes:
            ranges.append((start, start + size))
            start += size
        return tuple(ranges)

    def disk_of_page(self, page: int) -> int:
        """0-based index of the disk holding physical ``page``."""
        if not 0 <= page < self.total_pages:
            raise ConfigurationError(
                f"page {page} outside database [0, {self.total_pages})"
            )
        start = 0
        for index, size in enumerate(self.sizes):
            start += size
            if page < start:
                return index
        raise AssertionError("unreachable: ranges cover the database")

    def pages_on_disk(self, disk: int) -> range:
        """The physical pages assigned to ``disk`` (0-based)."""
        start, stop = self.disk_ranges()[disk]
        return range(start, stop)

    def bandwidth_shares(self) -> Tuple[float, ...]:
        """Fraction of broadcast slots each disk receives (ignoring padding).

        Disk ``i`` transmits ``sizes[i] * rel_freqs[i]`` page-slots per
        period, so its share is that weight normalised over all disks.
        """
        weights = [s * f for s, f in zip(self.sizes, self.rel_freqs)]
        total = sum(weights)
        return tuple(w / total for w in weights)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(size, rel_freq)`` pairs, fastest disk first."""
        return iter(zip(self.sizes, self.rel_freqs))

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``<500@7, 2000@4, 2500@1>``."""
        parts = [f"{s}@{f}" for s, f in self]
        return "<" + ", ".join(parts) + ">"


def disk_index_array(layout: DiskLayout) -> np.ndarray:
    """0-based disk of each physical page, as a dense lookup array."""
    return np.repeat(np.arange(layout.num_disks, dtype=np.int64), layout.sizes)
