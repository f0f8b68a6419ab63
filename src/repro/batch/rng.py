"""The group-level fleet stream, drawn from :class:`RandomStreams`.

Every batched fleet group draws each client's streams as that client's
per-client run does, ``RandomStreams(derive_seed(seed, index))``, so
no fleet path calls :func:`group_generator`.  It stays because the
end-to-end benchmark (``benchmarks/e2e/layers.py``) resolves it by name
to count group-stream fleets (``fleet.kernel_groups``, zero on every
workload).
"""

from __future__ import annotations

import numpy as np

from repro.exec.plan import derive_seed
from repro.sim.rng import RandomStreams

__all__ = ["group_generator"]


def group_generator(
    root_seed: int, start_index: int, name: str
) -> np.random.Generator:
    """A group-level stream for whole-fleet array draws.

    The ``batch.`` prefix keeps the stream disjoint from every
    per-client stream name.
    """

    return RandomStreams(derive_seed(root_seed, start_index)).stream(
        f"batch.{name}"
    )
