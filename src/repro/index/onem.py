"""The (1, m) index organisation [Imie94b].

The broadcast cycle interleaves ``m`` copies of the full index with the
data: ``[index][data/m] [index][data/m] ...``.  Every bucket carries the
offset to the next index segment, so a client tuning in cold can read
one bucket, doze to the index, and navigate from there.

Offsets are *forward bucket distances* modulo the cycle: an index entry
for a child says "wake up in ``k`` buckets".  Internal children point at
index buckets later in the same segment; bottom-level entries point at
the data bucket carrying the key (possibly wrapping into the next
cycle, when the data segment already passed).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.index.tree import DispatchTree, TreeNode

#: Bucket kinds.
INDEX = "index"
DATA = "data"


@dataclass
class Bucket:
    """One broadcast bucket: an index node or a data page.

    Attributes
    ----------
    kind:
        ``"index"`` or ``"data"``.
    key:
        The page key carried (data buckets only).
    next_index_offset:
        Forward distance (buckets) from this bucket to the next index
        segment's root bucket.
    entries:
        Index buckets only: ``(low_key, high_key, forward_offset)``
        per child.
    """

    kind: str
    key: Optional[int] = None
    next_index_offset: int = 0
    entries: List[Tuple[int, int, int]] = field(default_factory=list)


class IndexedBroadcast:
    """A periodic (1, m) broadcast of index and data buckets."""

    def __init__(
        self,
        buckets: Sequence[Bucket],
        keys: Sequence[int],
        m: int,
        fanout: int,
        index_size: int,
        tree_depth: int,
    ):
        self.buckets = list(buckets)
        self.keys = list(keys)
        self.m = m
        self.fanout = fanout
        self.index_size = index_size
        self.tree_depth = tree_depth

    @property
    def cycle_length(self) -> int:
        """Buckets per broadcast cycle."""
        return len(self.buckets)

    @property
    def num_data_buckets(self) -> int:
        """Data buckets per cycle (>= distinct keys when pages repeat)."""
        return sum(1 for bucket in self.buckets if bucket.kind == DATA)

    def bucket_at(self, position: int) -> Bucket:
        """The bucket broadcast at (cyclic) ``position``."""
        return self.buckets[position % self.cycle_length]

    def data_position(self, key: int) -> int:
        """Cycle position of the data bucket carrying ``key``."""
        for position, bucket in enumerate(self.buckets):
            if bucket.kind == DATA and bucket.key == key:
                return position
        raise ConfigurationError(f"key {key} is not carried by this broadcast")

    def index_root_positions(self) -> List[int]:
        """Cycle positions of each index segment's root bucket."""
        roots = []
        position = 0
        while position < len(self.buckets):
            if self.buckets[position].kind == INDEX:
                roots.append(position)
                position += self.index_size
            else:
                position += 1
        return roots


def _forward_distance(source: int, target: int, cycle: int) -> int:
    """Buckets from ``source`` forward to ``target`` (0 means same slot)."""
    return (target - source) % cycle


def build_one_m_broadcast(
    keys: Sequence[int],
    m: int,
    fanout: int = 4,
) -> IndexedBroadcast:
    """Assemble the (1, m) cycle for ``keys`` (sorted page ids).

    The data is split into ``m`` nearly-equal consecutive segments; a
    full serialised index precedes each.  All pointer offsets are
    resolved against the final cycle layout.
    """
    keys = list(keys)
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if m > len(keys):
        raise ConfigurationError(
            f"cannot split {len(keys)} data buckets into {m} segments"
        )
    return interleave_index(keys, keys, m, fanout)


def interleave_index(
    data: Sequence[int],
    keys: Sequence[int],
    m: int,
    fanout: int,
) -> IndexedBroadcast:
    """Interleave ``m`` full index copies with the data-slot sequence ``data``.

    ``data`` is the cycle's data in broadcast order, where a key may
    recur; ``keys`` are its distinct keys, strictly increasing, which
    the dispatch tree indexes.  Bottom-level entries point at the key's
    *next occurrence* after the index bucket: when every key airs once
    (:func:`build_one_m_broadcast`) that is its one data bucket, and on
    a multidisk program (:func:`repro.index.integrate.index_schedule`)
    a hot key's pointers shrink with its spacing.  Callers validate
    ``m`` against ``len(data)``.
    """
    tree = DispatchTree(keys, fanout)
    nodes = tree.nodes_in_broadcast_order()
    node_number = {id(node): index for index, node in enumerate(nodes)}
    index_size = len(nodes)

    # ------------------------------------------------------------------
    # Pass 1: layout.  Split the data sequence into m nearly-even runs,
    # each preceded by a full index copy.
    # ------------------------------------------------------------------
    run_length = -(-len(data) // m)  # ceil division
    layout: List[Tuple[str, int]] = []  # (kind, node index | key)
    root_positions: List[int] = []
    # Occurrence positions of each key in the combined cycle (sorted).
    occurrences: Dict[int, List[int]] = {key: [] for key in keys}
    for segment in range(m):
        root_positions.append(len(layout))
        layout.extend((INDEX, node_index) for node_index in range(index_size))
        for key in data[segment * run_length : (segment + 1) * run_length]:
            occurrences[key].append(len(layout))
            layout.append((DATA, key))
    cycle = len(layout)

    def next_occurrence_offset(source: int, key: int) -> int:
        """Forward distance from ``source`` to the key's next data bucket."""
        slots = occurrences[key]
        later = bisect_right(slots, source)
        if later < len(slots):
            return slots[later] - source
        return slots[0] + cycle - source  # wrap

    # ------------------------------------------------------------------
    # Pass 2: resolve pointers, segment by segment: a segment's index
    # copy starts at its root, and every bucket up to the next root
    # points there.
    # ------------------------------------------------------------------
    buckets: List[Bucket] = []
    for root, next_root in zip(root_positions, root_positions[1:] + [cycle]):
        for position in range(root, next_root):
            kind, payload = layout[position]
            next_index_offset = next_root - position
            if kind == DATA:
                buckets.append(
                    Bucket(
                        kind=DATA,
                        key=payload,
                        next_index_offset=next_index_offset,
                    )
                )
                continue
            node: TreeNode = nodes[payload]
            entries: List[Tuple[int, int, int]] = []
            for child_position, (low, high) in enumerate(
                zip(node.lows, node.highs)
            ):
                child = node.children[child_position]
                if isinstance(child, TreeNode):
                    target = root + node_number[id(child)]
                    offset = _forward_distance(position, target, cycle)
                else:
                    offset = next_occurrence_offset(position, tree.keys[child])
                entries.append((low, high, offset))
            buckets.append(
                Bucket(
                    kind=INDEX,
                    next_index_offset=next_index_offset,
                    entries=entries,
                )
            )

    return IndexedBroadcast(
        buckets=buckets,
        keys=keys,
        m=m,
        fanout=fanout,
        index_size=index_size,
        tree_depth=tree.depth,
    )
