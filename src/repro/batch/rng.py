"""Seeded array-RNG gateway for the columnar batch engine.

Every :class:`numpy.random.Generator` used by the batch layer is minted
here, seeded through :func:`repro.exec.plan.derive_seed` so that client
``index`` in a fleet draws from *exactly* the same stream whether it is
simulated by a per-client :class:`~repro.sim.rng.RandomStreams` run or a
columnar batch run.  The entropy recipe below is deliberately identical
to :meth:`RandomStreams.stream <repro.sim.rng.RandomStreams.stream>`:
``(seed, digest-sum, *digest-bytes)`` fed to a
:class:`numpy.random.SeedSequence`.

Like :mod:`repro.sim.rng`, this module is allowlisted for the lint rule
RL002 (``[tool.reprolint.allow]`` in ``pyproject.toml``): it is the
batch layer's one sanctioned ``numpy.random`` gateway.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.exec.plan import derive_seed

__all__ = [
    "stream_entropy",
    "seeded_generator",
    "client_generator",
    "client_generators",
    "group_generator",
]


def stream_entropy(seed: int, name: str) -> Tuple[int, ...]:
    """Entropy tuple matching ``RandomStreams(seed).stream(name)``."""

    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    return (int(seed), int(digest.sum()), *digest.tolist())


def seeded_generator(seed: int, name: str) -> np.random.Generator:
    """Mint a named, explicitly-seeded generator.

    Identical to the stream that ``RandomStreams(seed).stream(name)``
    returns: same entropy, same PCG64 state, same draws.
    """

    entropy = stream_entropy(seed, name)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def client_generator(root_seed: int, index: int, name: str) -> np.random.Generator:
    """The stream client ``index`` of a fleet would see in a per-client run.

    ``derive_seed`` gives the client its fleet-size-independent seed;
    the returned generator then matches
    ``RandomStreams(derive_seed(root_seed, index)).stream(name)`` draw
    for draw, which is what makes batch traces byte-identical to the
    per-client path.
    """

    return seeded_generator(derive_seed(root_seed, index), name)


def client_generators(
    root_seed: int, indices: Iterable[int], name: str
) -> Iterator[np.random.Generator]:
    """One :func:`client_generator` per index, in order.

    ``indices`` may be any index sequence — a contiguous ``range`` for
    a homogeneous segment or the scattered index list of a
    sub-segmented bucket; each client's stream depends only on its own
    global index, never on its neighbours in the batch.
    """

    for index in indices:
        yield client_generator(root_seed, index, name)


def group_generator(root_seed: int, start_index: int, name: str) -> np.random.Generator:
    """A group-level stream for whole-fleet array draws.

    Used by the phase-table kernel, where per-client streams would cost
    more than the simulation itself.  The ``batch.`` prefix keeps the
    stream disjoint from every per-client stream name, so group draws
    never collide with (or replay) per-client draws.
    """

    return seeded_generator(derive_seed(root_seed, start_index), f"batch.{name}")
