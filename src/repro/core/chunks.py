"""LCM chunking: step 4 of the §2.2 program generation algorithm.

Each disk is split into ``num_chunks(i) = max_chunks / rel_freq(i)``
equal-size chunks, where ``max_chunks`` is the least common multiple of
the relative frequencies.  A minor cycle broadcasts one chunk of every
disk; ``max_chunks`` minor cycles make one major cycle (the period).

If a disk's size does not divide evenly into its chunk count, the trailing
chunks are padded with empty slots (§2.2 notes these can carry indexes or
extra copies of hot pages; we leave them empty and account for them in all
delay arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import List, Sequence, Tuple

from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError

#: Sentinel page id marking an unused (padding) broadcast slot.
EMPTY_SLOT = -1

#: The largest period, in slots, a layout may ask for (the scale of
#: ``MAX_PAGE_ID``): a schedule holds its whole major cycle in memory,
#: and 22 one-page disks at Δ=1 would ask for 5,121,436,320 slots.
MAX_PERIOD = 2**22


def lcm_many(values: Sequence[int]) -> int:
    """Least common multiple of a non-empty sequence of positive integers."""
    if not values:
        raise ConfigurationError("lcm of an empty sequence is undefined")
    if any(v < 1 for v in values):
        raise ConfigurationError(f"lcm requires positive integers, got {values}")
    return reduce(math.lcm, values)


@dataclass(frozen=True)
class ChunkPlan:
    """The chunking arithmetic for one :class:`DiskLayout`.

    Attributes
    ----------
    max_chunks:
        LCM of the relative frequencies; the number of minor cycles per
        major cycle.
    num_chunks:
        Chunks per disk: ``max_chunks // rel_freq(i)``.
    chunk_sizes:
        Pages per chunk of each disk, ``ceil(size_i / num_chunks_i)``.
    minor_cycle_length:
        Slots per minor cycle: the sum of the chunk sizes.
    period:
        Slots per major cycle: ``max_chunks * minor_cycle_length``.
    padding_slots:
        Empty slots per major cycle introduced by uneven chunk splits.
    """

    layout: DiskLayout
    max_chunks: int
    num_chunks: Tuple[int, ...]
    chunk_sizes: Tuple[int, ...]
    minor_cycle_length: int
    period: int
    padding_slots: int

    @classmethod
    def for_layout(cls, layout: DiskLayout) -> "ChunkPlan":
        """Compute the chunking plan for ``layout`` (period <= MAX_PERIOD)."""
        max_chunks = lcm_many(layout.rel_freqs)
        num_chunks = tuple(max_chunks // f for f in layout.rel_freqs)
        chunk_sizes = tuple(
            math.ceil(size / chunks)
            for size, chunks in zip(layout.sizes, num_chunks)
        )
        minor = sum(chunk_sizes)
        period = max_chunks * minor
        if period > MAX_PERIOD:
            raise ConfigurationError(
                f"layout {layout.describe()} has a period of {period:,} "
                f"slots, above the cap of {MAX_PERIOD:,}"
            )
        # Each disk occupies chunk_size slots in every minor cycle, i.e.
        # chunk_size * max_chunks slots per period, of which
        # size * rel_freq carry real pages; the rest is padding.
        occupied = sum(
            size * freq for size, freq in zip(layout.sizes, layout.rel_freqs)
        )
        padding = period - occupied
        return cls(
            layout=layout,
            max_chunks=max_chunks,
            num_chunks=num_chunks,
            chunk_sizes=chunk_sizes,
            minor_cycle_length=minor,
            period=period,
            padding_slots=padding,
        )

    @property
    def utilisation(self) -> float:
        """Fraction of broadcast slots carrying real pages."""
        return 1.0 - self.padding_slots / self.period

    def chunks_for_disk(self, disk: int) -> List[List[int]]:
        """The chunk contents (physical page ids) for one disk.

        Pages fill chunks in order; trailing slots of the final chunks are
        padded with :data:`EMPTY_SLOT` so that every chunk of a disk has
        identical length — the property that guarantees fixed per-page
        inter-arrival times.
        """
        pages = list(self.layout.pages_on_disk(disk))
        size = self.chunk_sizes[disk]
        count = self.num_chunks[disk]
        chunks = []
        for index in range(count):
            chunk = pages[index * size : (index + 1) * size]
            chunk.extend([EMPTY_SLOT] * (size - len(chunk)))
            chunks.append(chunk)
        return chunks

    def interleave(self) -> List[int]:
        """Produce the full major cycle (§2.2 step 5 pseudo-code).

        ::

            for minor in range(max_chunks):
                for disk in range(num_disks):
                    broadcast chunk C[disk, minor mod num_chunks(disk)]
        """
        per_disk_chunks = [
            self.chunks_for_disk(disk) for disk in range(self.layout.num_disks)
        ]
        slots: List[int] = []
        for minor in range(self.max_chunks):
            for disk in range(self.layout.num_disks):
                chunks = per_disk_chunks[disk]
                slots.extend(chunks[minor % len(chunks)])
        if len(slots) != self.period:
            raise ConfigurationError(
                f"internal chunking error: produced {len(slots)} slots, "
                f"expected period {self.period}"
            )
        return slots
