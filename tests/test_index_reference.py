"""The (1, m) builders against the two bodies they had before one interleaver.

``build_one_m_broadcast`` and ``index_schedule`` each laid out and
resolved their own cycle; both now validate their inputs and call
:func:`repro.index.onem.interleave_index`.  The old bodies are kept
here, as they were, as the reference: over hypothesis-drawn keys and
multidisk programs the builders must return the same cycle, bucket for
bucket, and reject the same inputs with the same message.
"""

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.index.integrate import index_schedule
from repro.index.onem import (
    DATA,
    INDEX,
    Bucket,
    IndexedBroadcast,
    build_one_m_broadcast,
)
from repro.index.tree import DispatchTree, TreeNode


def _forward_distance(source: int, target: int, cycle: int) -> int:
    """Buckets from ``source`` forward to ``target`` (0 means same slot)."""
    return (target - source) % cycle


def reference_build_one_m_broadcast(
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
    tree = DispatchTree(keys, fanout)
    nodes = tree.nodes_in_broadcast_order()
    index_size = len(nodes)

    # ------------------------------------------------------------------
    # Pass 1: lay out bucket kinds and remember positions.
    # ------------------------------------------------------------------
    segment_size = -(-len(keys) // m)  # ceil division
    layout: List[Tuple[str, object]] = []  # (kind, node | key)
    node_positions_per_segment: List[Dict[int, int]] = []
    data_positions: Dict[int, int] = {}
    root_positions: List[int] = []
    for segment in range(m):
        root_positions.append(len(layout))
        positions: Dict[int, int] = {}
        for node_index, node in enumerate(nodes):
            positions[node_index] = len(layout)
            layout.append((INDEX, node))
        node_positions_per_segment.append(positions)
        for key in keys[segment * segment_size : (segment + 1) * segment_size]:
            data_positions[key] = len(layout)
            layout.append((DATA, key))
    cycle = len(layout)

    # ------------------------------------------------------------------
    # Pass 2: resolve offsets.
    # ------------------------------------------------------------------
    node_number = {id(node): index for index, node in enumerate(nodes)}
    buckets: List[Bucket] = []
    segment = -1
    for position, (kind, payload) in enumerate(layout):
        if position in root_positions:
            segment += 1
        next_root = min(
            (root for root in root_positions + [root_positions[0] + cycle]
             if root > position),
        )
        next_index_offset = next_root - position
        if kind == DATA:
            buckets.append(
                Bucket(
                    kind=DATA,
                    key=payload,  # type: ignore[arg-type]
                    next_index_offset=next_index_offset,
                )
            )
            continue
        node: TreeNode = payload  # type: ignore[assignment]
        entries: List[Tuple[int, int, int]] = []
        for child_position, (low, high) in enumerate(zip(node.lows, node.highs)):
            child = node.children[child_position]
            if isinstance(child, TreeNode):
                target = node_positions_per_segment[segment][
                    node_number[id(child)]
                ]
            else:
                target = data_positions[tree.keys[child]]
            entries.append(
                (low, high, _forward_distance(position, target, cycle))
            )
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


def reference_index_schedule(
    schedule: BroadcastSchedule,
    m: int,
    fanout: int = 4,
) -> IndexedBroadcast:
    """Interleave ``m`` index copies with an arbitrary broadcast program."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    data_slots: List[int] = [
        page for page in schedule.slots if page >= 0  # drop padding
    ]
    if m > len(data_slots):
        raise ConfigurationError(
            f"cannot interleave {m} index copies with {len(data_slots)} "
            "data slots"
        )
    keys = sorted(set(data_slots))
    tree = DispatchTree(keys, fanout)
    nodes = tree.nodes_in_broadcast_order()
    node_number = {id(node): index for index, node in enumerate(nodes)}
    index_size = len(nodes)

    # ------------------------------------------------------------------
    # Pass 1: layout.  Split the data sequence into m nearly-even runs,
    # each preceded by a full index copy.
    # ------------------------------------------------------------------
    run_length = -(-len(data_slots) // m)
    layout: List[Tuple[str, object]] = []
    node_positions_per_segment: List[dict] = []
    root_positions: List[int] = []
    for segment in range(m):
        root_positions.append(len(layout))
        positions = {}
        for node_index, _node in enumerate(nodes):
            positions[node_index] = len(layout)
            layout.append((INDEX, node_index))
        node_positions_per_segment.append(positions)
        for page in data_slots[segment * run_length : (segment + 1) * run_length]:
            layout.append((DATA, page))
    cycle = len(layout)

    # Occurrence positions of each key in the combined cycle (sorted).
    occurrences: dict = {key: [] for key in keys}
    for position, (kind, payload) in enumerate(layout):
        if kind == DATA:
            occurrences[payload].append(position)

    def next_occurrence_offset(source: int, key: int) -> int:
        """Forward distance from ``source`` to the key's next data bucket."""
        slots = occurrences[key]
        for position in slots:
            if position > source:
                return position - source
        return slots[0] + cycle - source  # wrap

    # ------------------------------------------------------------------
    # Pass 2: resolve pointers.
    # ------------------------------------------------------------------
    buckets: List[Bucket] = []
    segment = -1
    for position, (kind, payload) in enumerate(layout):
        if position in root_positions:
            segment += 1
        next_root = min(
            root for root in root_positions + [root_positions[0] + cycle]
            if root > position
        )
        next_index_offset = next_root - position
        if kind == DATA:
            buckets.append(
                Bucket(
                    kind=DATA,
                    key=payload,  # type: ignore[arg-type]
                    next_index_offset=next_index_offset,
                )
            )
            continue
        node: TreeNode = nodes[payload]  # type: ignore[index]
        entries = []
        for child_position, (low, high) in enumerate(zip(node.lows, node.highs)):
            child = node.children[child_position]
            if isinstance(child, TreeNode):
                target = node_positions_per_segment[segment][
                    node_number[id(child)]
                ]
                offset = (target - position) % cycle
            else:
                key = tree.keys[child]
                offset = next_occurrence_offset(position, key)
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


def same_cycle(ours: IndexedBroadcast, theirs: IndexedBroadcast) -> None:
    assert ours.buckets == theirs.buckets
    assert (ours.keys, ours.m, ours.fanout) == (
        theirs.keys, theirs.m, theirs.fanout
    )
    assert (ours.index_size, ours.tree_depth) == (
        theirs.index_size, theirs.tree_depth
    )


def outcome(build, *args):
    """The cycle ``build`` returns, or the message it raises."""
    try:
        return build(*args)
    except ConfigurationError as error:
        return str(error)


@st.composite
def one_m_cases(draw):
    """Strictly increasing keys (negative ids too), m up to one past len."""
    keys = sorted(draw(st.sets(
        st.integers(min_value=-500, max_value=500), min_size=1, max_size=60
    )))
    m = draw(st.integers(min_value=0, max_value=len(keys) + 1))
    return keys, m, draw(st.integers(min_value=2, max_value=6))


@given(one_m_cases())
@settings(max_examples=200, deadline=None)
def test_one_m_builder_matches_the_reference(case):
    keys, m, fanout = case
    ours = outcome(build_one_m_broadcast, keys, m, fanout)
    theirs = outcome(reference_build_one_m_broadcast, keys, m, fanout)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        same_cycle(ours, theirs)


@st.composite
def multidisk_cases(draw):
    """A small multidisk program (padding slots likely), m and fanout."""
    num_disks = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(st.lists(
        st.integers(min_value=1, max_value=12),
        min_size=num_disks, max_size=num_disks,
    ))
    freqs = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=6),
        min_size=num_disks, max_size=num_disks,
    )), reverse=True)
    program = multidisk_program(DiskLayout(sizes, freqs))
    data_slots = program.period - program.empty_slots
    m = draw(st.integers(min_value=0, max_value=min(data_slots + 1, 12)))
    return program, m, draw(st.integers(min_value=2, max_value=6))


@given(multidisk_cases())
@settings(max_examples=150, deadline=None)
def test_index_schedule_matches_the_reference(case):
    program, m, fanout = case
    ours = outcome(index_schedule, program, m, fanout)
    theirs = outcome(reference_index_schedule, program, m, fanout)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        same_cycle(ours, theirs)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_flat_program_gives_the_one_m_cycle(m):
    """Each key airing once: next-occurrence pointers are (1, m) pointers."""
    keys = [0, 3, 4, 9, 15, 16, 23, 42, 57, 61]
    same_cycle(
        index_schedule(BroadcastSchedule(keys), m, 3),
        reference_build_one_m_broadcast(keys, m, 3),
    )
