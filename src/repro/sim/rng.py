"""Named, seeded random streams.

The paper's results are steady-state averages over stochastic workloads;
reproducing them credibly requires that every source of randomness be both
seeded and *independent* of the others, so that, say, adding noise swaps to
the mapping does not perturb the sequence of client requests.

:class:`RandomStreams` derives one :class:`numpy.random.Generator` per
logical purpose ("requests", "noise", "think", ...) from a single root
seed using ``SeedSequence.spawn``-style child seeding keyed by the stream
name.  Asking for the same name twice returns the same generator object.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class RandomStreams:
    """A family of independent, reproducible random generators."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The generator is keyed by hashing the stream name into the seed
        material, so the set of *other* streams requested never affects
        the values a given stream produces.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Stable, platform-independent digest of the name.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            entropy = (self.seed, int(digest.sum()), *digest.tolist())
            generator = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
            self._streams[name] = generator
        return generator

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def fork(self, offset: int) -> "RandomStreams":
        """A fresh family with a related but distinct root seed.

        Used to give replicated experiment runs (e.g. different simulated
        clients) independent randomness while keeping a single master seed.
        """
        return RandomStreams(self.seed * 1_000_003 + offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
