"""Indexing the *multidisk* broadcast (§7: "integrate indexes with the
multilevel disk").

:func:`index_schedule` generalises the (1, m) builder from a flat
carousel to any :class:`~repro.core.schedule.BroadcastSchedule`:

* the data portion of the combined cycle is the multidisk program's slot
  sequence (pages repeat according to their disk's frequency; padding
  slots are dropped — the index replaces their role);
* ``m`` full index copies are interleaved at (nearly) even spacing;
* bottom-level index entries point to the **next occurrence** of the key
  after the index bucket — on a multidisk program a hot page has many
  occurrences, so both its access *and* the pointer distances shrink.

The payoff measured in ``benchmarks/bench_indexing.py`` /
:func:`repro.experiments.figures.indexing_tradeoff`'s multidisk variant:
under skewed access the indexed multidisk broadcast gives hot keys much
lower access latency than the indexed flat broadcast at the same
(constant) tuning cost.
"""

from __future__ import annotations

from typing import List

from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.index.onem import IndexedBroadcast, interleave_index


def index_schedule(
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
    return interleave_index(data_slots, sorted(set(data_slots)), m, fanout)
