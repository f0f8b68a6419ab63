"""Run plans: frozen, hashable, picklable units of experiment work.

A :class:`RunPlan` pins down everything one experiment execution needs —
the :class:`~repro.experiments.config.ExperimentConfig`, the engine, and
the collection options — with no live objects attached, so a plan can be
hashed (grid de-duplication), pickled (sent to a worker process), and
fingerprinted (matched against a checkpoint journal).
:func:`~repro.exec.executor.run_plans` consumes plans; nothing about a
plan depends on *how* it will be executed.

Seeds: a plan runs with its config's own seed, which keeps every
figure reproduction bit-for-bit identical.  Populations give each
client its own seed with :func:`derive_seed`, pure arithmetic on the
fleet seed and the client index, so regenerating the same fleet always
re-derives the same seeds no matter how many workers run it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig

#: The engines :func:`repro.exec.run.execute_plan` can run a plan on.
ENGINES: Tuple[str, ...] = ("batch", "fast", "fast-reference", "process")

#: Seed-derivation stride — the same constant
#: :meth:`repro.sim.rng.RandomStreams.fork` uses, so plan seeds and
#: client forks draw from one derivation convention.
_SEED_STRIDE = 1_000_003


def derive_seed(seed: int, index: int) -> int:
    """The seed of position ``index`` (a fleet's client) under ``seed``.

    Pure arithmetic on ints: the same ``(seed, index)`` pair always
    yields the same seed, on every platform and in every process.
    """
    return int(seed) * _SEED_STRIDE + int(index)


def check_engine(engine: str) -> None:
    """Reject an engine name outside :data:`ENGINES`, listing the valid set."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINES)}"
        )


@dataclass(frozen=True)
class RunPlan:
    """One fully-specified, runner-agnostic unit of experiment work;
    its place in a grid or fleet is its position in the plan list."""

    config: ExperimentConfig
    engine: str = "fast"
    collect_responses: bool = False

    def __post_init__(self):
        check_engine(self.engine)

    @property
    def seed(self) -> int:
        """The seed this plan runs with (the config's seed)."""
        return self.config.seed

    def fingerprint(self) -> str:
        """Stable identity of the *work*, independent of grid position.

        Two plans fingerprint equal iff they would produce the same
        result: same config (every field), same engine, same collection
        options.  Nothing else goes in, so a checkpoint journal
        survives grid reordering.
        """
        from repro.obs.manifest import config_hash

        payload = json.dumps(
            {
                "config": config_hash(self.config),
                "engine": self.engine,
                "collect_responses": self.collect_responses,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_sweep(
    configs: Iterable[ExperimentConfig],
    *,
    engine: str = "fast",
    collect_responses: bool = False,
) -> List[RunPlan]:
    """Plans for a whole grid, in iteration order.

    Every config keeps its own seed, which is what the paper
    reproductions want (one shared seed across the grid).
    """
    return [
        RunPlan(
            config=config,
            engine=engine,
            collect_responses=collect_responses,
        )
        for config in configs
    ]
