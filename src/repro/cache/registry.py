"""Name → cache-policy construction.

The experiment layer names policies by the strings the paper uses
("P", "PIX", "LRU", "L", "LIX") plus the extension baselines
("LRU-K"/"lru2", "2Q").  Names are case-insensitive.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.cache.base import CachePolicy, PolicyContext
from repro.cache.lix import LPolicy, LIXPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.lruk import LRUKPolicy
from repro.cache.p import PPolicy
from repro.cache.pix import PIXPolicy
from repro.cache.twoq import TwoQPolicy
from repro.errors import ConfigurationError

_FACTORIES: Dict[str, Callable[[int, PolicyContext], CachePolicy]] = {
    "p": PPolicy,
    "pix": PIXPolicy,
    "lru": LRUPolicy,
    "l": LPolicy,
    "lix": LIXPolicy,
    "lru-k": LRUKPolicy,
    "lruk": LRUKPolicy,
    "lru2": partial(LRUKPolicy, k=2),
    "2q": TwoQPolicy,
}

#: Canonical display names, in the order the paper introduces them.
CANONICAL_NAMES = ("P", "PIX", "LRU", "L", "LIX", "LRU-K", "2Q")


def available_policies() -> List[str]:
    """The canonical policy names the registry accepts."""
    return list(CANONICAL_NAMES)


def _factory(name: str) -> Callable[[int, PolicyContext], CachePolicy]:
    factory = _FACTORIES.get(name.strip().lower())
    if factory is None:
        raise ConfigurationError(
            f"unknown cache policy {name!r}; known: {', '.join(CANONICAL_NAMES)}"
        )
    return factory


def make_policy(
    name: str,
    capacity: int,
    context: PolicyContext,
) -> CachePolicy:
    """Construct the policy called ``name`` with ``capacity`` page slots."""
    return _factory(name)(capacity, context)


def policy_oracles(name: str) -> Tuple[str, ...]:
    """The :class:`PolicyContext` oracles the policy called ``name``
    reads (its class's :attr:`~repro.cache.base.CachePolicy.oracles`)."""
    factory = _factory(name)
    return getattr(factory, "func", factory).oracles
