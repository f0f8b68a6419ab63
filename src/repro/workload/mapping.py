"""Logical→physical page mapping: Offset and Noise (§4.2).

The simulated client requests *logical* pages; the server broadcasts
*physical* pages.  Perturbing the mapping lets one client model a whole
population:

1. Start from the identity: logical page ``i`` → physical page ``i``, so
   the client's hottest pages sit on the fastest disk.
2. **Offset**: circularly shift the mapping by ``offset`` pages, pushing
   the ``offset`` hottest logical pages to the end of the slowest disk
   and pulling colder pages onto the faster disks (Figure 4).  With a
   cache of the idealised P policy, the best broadcast sets
   ``Offset = CacheSize`` — the cached pages need not be broadcast fast.
3. **Noise**: "Noise determines the percentage of pages for which there
   may be a mismatch between the client and the server."  For each page
   subject to the coin, with probability ``noise`` pick a destination
   disk uniformly at random, pick a random resident page of that disk,
   and exchange the two pages' mappings.  Swaps within the same disk are
   allowed, so ``noise`` is an upper bound on actual disagreement (paper
   footnote 3).

``noise_scope`` controls which logical pages the coin is tossed for.
The default (used by the experiment layer) is the client's access range
— the pages for which client/server mismatch is defined.  Tossing the
coin over the whole database instead (``noise_scope=None``) makes every
fast-disk page a frequent swap *victim* (a disk-1 page at the paper's
scale is dragged away with probability well above ``noise``), which
breaks the footnote's upper-bound property and overstates the workload
deviation; calibration against the paper's Figures 9/10 confirms the
access-range scope (P crosses the flat baseline near 45% noise, PIX
never does — both match only under the scoped coin).

The swaps are drawn as the scalar loop :func:`_scalar_swaps` draws them
— ``rng.integers(num_disks)`` then ``rng.integers(start, stop)`` per
coin-selected page — but decoded from raw generator words in one call
(:func:`_decoded_swaps`).  NumPy serves both bounded draws by Lemire's
method on 32-bit halves, and ``PCG64`` hands out the low half of a
fresh 64-bit word and then its buffered high half, so swap ``i`` reads
word ``i``.  Where the words would be consumed differently — another bit
generator, a half already buffered, a range of one value (NumPy draws
nothing for it), or a rejected draw — the scalar loop runs instead, from
the same generator state.  Both paths leave the same mapping and the
same generator state.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.disks import DiskLayout
from repro.errors import ConfigurationError


class LogicalPhysicalMapping:
    """The §4.2 three-step logical→physical mapping."""

    def __init__(
        self,
        layout: DiskLayout,
        offset: int = 0,
        noise: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        noise_scope: Optional[int] = None,
    ):
        total = layout.total_pages
        if not 0 <= offset <= total:
            raise ConfigurationError(
                f"offset must be in [0, {total}], got {offset}"
            )
        if not 0.0 <= noise <= 1.0:
            raise ConfigurationError(f"noise must be in [0, 1], got {noise}")
        if noise > 0.0 and rng is None:
            raise ConfigurationError("noise > 0 requires an rng for the swaps")
        if noise_scope is not None and not 1 <= noise_scope <= total:
            raise ConfigurationError(
                f"noise_scope must be in [1, {total}], got {noise_scope}"
            )
        self.layout = layout
        self.offset = offset
        self.noise = noise
        self.noise_scope = noise_scope if noise_scope is not None else total

        # Step 1+2: identity shifted by offset.  Logical page i lands at
        # physical (i - offset) mod total: the offset hottest pages wrap
        # to the tail of the slowest disk.
        logical = np.arange(total, dtype=np.int64)
        physical = (logical - offset) % total

        # Step 3: noise swaps over the physical placement, with the
        # inverse index kept in step.
        inverse = np.empty(total, dtype=np.int64)
        inverse[physical] = np.arange(total, dtype=np.int64)
        if noise > 0.0:
            assert rng is not None
            selected = np.flatnonzero(rng.random(self.noise_scope) < noise)
            if not _decoded_swaps(
                physical, inverse, offset, selected, layout, rng
            ):
                _scalar_swaps(physical, inverse, selected, layout, rng)

        physical.flags.writeable = False
        inverse.flags.writeable = False
        self._to_physical = physical
        self._to_logical = inverse

    # -- queries ---------------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Size of the mapped database."""
        return len(self._to_physical)

    def to_physical(self, logical: int) -> int:
        """Physical page broadcast for logical page ``logical``."""
        return int(self._to_physical[logical])

    def to_logical(self, physical: int) -> int:
        """Logical page that physical page ``physical`` represents."""
        return int(self._to_logical[physical])

    def physical_array(self) -> np.ndarray:
        """The whole logical→physical mapping as an array (read-only view)."""
        return self._to_physical.view()

    def disk_of_logical(self, logical: int) -> int:
        """0-based disk index on which logical page ``logical`` travels."""
        return self.layout.disk_of_page(self.to_physical(logical))

    def displaced_fraction(self, access_range: Optional[int] = None) -> float:
        """Fraction of pages whose *disk* differs from the offset-only layout.

        Measures the effective disagreement the noise produced (always
        <= ``noise``, per the paper's footnote that same-disk swaps are
        harmless).  With ``access_range`` given, only the client's pages
        are counted — the disagreement that actually matters to it.
        """
        limit = access_range if access_range is not None else self.total_pages
        total = self.total_pages
        displaced = 0
        for logical in range(limit):
            baseline_physical = (logical - self.offset) % total
            baseline_disk = self.layout.disk_of_page(baseline_physical)
            if self.disk_of_logical(logical) != baseline_disk:
                displaced += 1
        return displaced / limit

    def frequency_map(self, schedule, access_range: int) -> Dict[int, float]:
        """Broadcast frequency of each logical page in the access range.

        This is the *X* the cost-based policies divide by; the paper notes
        clients know it exactly (the broadcast is periodic and
        self-describing).
        """
        return {
            logical: schedule.frequency(self.to_physical(logical))
            for logical in range(access_range)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LogicalPhysicalMapping pages={self.total_pages} "
            f"offset={self.offset} noise={self.noise}>"
        )


#: Low-half mask of a raw 64-bit generator word.
_LOW32 = np.uint64(0xFFFFFFFF)


def _scalar_swaps(
    physical: np.ndarray,
    inverse: np.ndarray,
    selected: np.ndarray,
    layout: DiskLayout,
    rng: np.random.Generator,
) -> None:
    """Apply the noise swaps one scalar draw at a time, in place.

    The reference for :func:`_decoded_swaps`, and its fallback.  An
    inverse index is maintained incrementally so each swap is O(1).
    """
    ranges = layout.disk_ranges()
    for logical_page in selected:
        destination_disk = int(rng.integers(layout.num_disks))
        start, stop = ranges[destination_disk]
        victim_physical = int(rng.integers(start, stop))
        # Exchange the two physical slots between their logical owners.
        other_logical = int(inverse[victim_physical])
        own_physical = int(physical[logical_page])
        physical[logical_page] = victim_physical
        physical[other_logical] = own_physical
        inverse[victim_physical] = logical_page
        inverse[own_physical] = other_logical


def _decoded_swaps(
    physical: np.ndarray,
    inverse: np.ndarray,
    offset: int,
    selected: np.ndarray,
    layout: DiskLayout,
    rng: np.random.Generator,
) -> bool:
    """Apply :func:`_scalar_swaps`'s swaps from raw words, in place.

    ``physical`` and ``inverse`` must still hold the offset shift.  Takes
    one 64-bit word per swap and decodes it as NumPy would: the
    destination disk is the Lemire draw on the low half, the victim the
    Lemire draw on the high half.  Returns ``False``, with the generator
    as it was found and the arrays untouched, when the scalar loop would
    consume its words in any other way.  Otherwise leaves the generator
    exactly where the loop would, buffered high half included.
    """
    bit_generator = rng.bit_generator
    sizes = layout.sizes
    # A one-value range draws no word, and ranges above 2**32 take
    # NumPy's 64-bit path.
    if (type(bit_generator) is not np.random.PCG64 or len(sizes) < 2
            or min(sizes) < 2 or max(sizes) > 2**32):
        return False
    saved = bit_generator.state
    if saved["has_uint32"]:
        return False
    if not len(selected):
        return True
    words = bit_generator.random_raw(len(selected))
    # Lemire: the draw is the high half of ``half * n``, rejected when
    # its low half falls below ``2**32 % n``.
    num_disks = np.uint64(len(sizes))
    scaled = (words & _LOW32) * num_disks
    disks = scaled >> np.uint64(32)
    counts = np.asarray(sizes, dtype=np.uint64)[disks]
    scaled_victims = (words >> np.uint64(32)) * counts
    if ((scaled & _LOW32) < np.uint64(2**32 % len(sizes))).any() or (
        (scaled_victims & _LOW32) < np.uint64(2**32) % counts
    ).any():
        bit_generator.state = saved
        return False
    starts = np.asarray([start for start, _ in layout.disk_ranges()],
                        dtype=np.int64)
    victims = starts[disks] + (scaled_victims >> np.uint64(32)).astype(
        np.int64
    )
    state = bit_generator.state
    state["uinteger"] = int(words[-1] >> np.uint64(32))
    bit_generator.state = state

    # The loop's swaps, over sparse overlays of the offset shift.  The
    # pages they touch trade slots among themselves, so one overlay's
    # pairs rewrite both arrays.
    total = len(physical)
    to_physical: Dict[int, int] = {}
    to_logical: Dict[int, int] = {}
    for logical_page, victim_physical in zip(selected.tolist(),
                                             victims.tolist()):
        other_logical = to_logical.get(
            victim_physical, (victim_physical + offset) % total
        )
        own_physical = to_physical.get(
            logical_page, (logical_page - offset) % total
        )
        to_physical[logical_page] = victim_physical
        to_physical[other_logical] = own_physical
        to_logical[victim_physical] = logical_page
        to_logical[own_physical] = other_logical
    touched = len(to_physical)
    logical_pages = np.fromiter(to_physical, dtype=np.int64, count=touched)
    physical_pages = np.fromiter(
        to_physical.values(), dtype=np.int64, count=touched
    )
    physical[logical_pages] = physical_pages
    inverse[physical_pages] = logical_pages
    return True
