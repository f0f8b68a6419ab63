"""Run plans: frozen, hashable, picklable units of experiment work.

A :class:`RunPlan` pins down everything one experiment execution needs —
the :class:`~repro.experiments.config.ExperimentConfig`, the engine, and
the collection options — with no live objects attached, so a plan can be
hashed (grid de-duplication), pickled (sent to a worker process), and
fingerprinted (matched against a checkpoint journal).  Executors consume
plans; nothing about a plan depends on *how* it will be executed.

Seeds: by default a plan runs with its config's own seed, which keeps
every existing figure reproduction bit-for-bit identical.  When a sweep
wants per-point seed independence, :func:`plan_sweep` accepts a
``sweep_seed`` and derives each plan's seed deterministically from it
and the plan index (:func:`derive_seed`), so regenerating the same grid
always re-derives the same seeds no matter which executor runs it.
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


def derive_seed(sweep_seed: int, index: int) -> int:
    """The per-plan seed for position ``index`` of a seeded sweep.

    Pure arithmetic on ints: the same ``(sweep_seed, index)`` pair
    always yields the same seed, on every platform and in every
    process.
    """
    return int(sweep_seed) * _SEED_STRIDE + int(index)


def check_engine(engine: str) -> None:
    """Reject an engine name outside :data:`ENGINES`, listing the valid set."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINES)}"
        )


@dataclass(frozen=True)
class RunPlan:
    """One fully-specified, executor-agnostic unit of experiment work."""

    config: ExperimentConfig
    engine: str = "fast"
    collect_responses: bool = False
    #: Position in the sweep grid; results are reassembled in this order.
    index: int = 0

    def __post_init__(self):
        check_engine(self.engine)

    @property
    def seed(self) -> int:
        """The seed this plan runs with (the config's seed)."""
        return self.config.seed

    def describe(self) -> str:
        """Short human-readable identifier for progress lines."""
        return f"[{self.index}] {self.config.describe()} ({self.engine})"

    def fingerprint(self) -> str:
        """Stable identity of the *work*, independent of grid position.

        Two plans fingerprint equal iff they would produce the same
        result: same config (every field), same engine, same collection
        options.  The index is deliberately excluded so a checkpoint
        journal survives grid reordering.
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


def plan_for(
    config: ExperimentConfig,
    *,
    engine: str = "fast",
    collect_responses: bool = False,
    index: int = 0,
) -> RunPlan:
    """The plan that reproduces one ``run_experiment`` call."""
    return RunPlan(
        config=config,
        engine=engine,
        collect_responses=collect_responses,
        index=index,
    )


def plan_sweep(
    configs: Iterable[ExperimentConfig],
    *,
    engine: str = "fast",
    collect_responses: bool = False,
    sweep_seed: int = None,
) -> List[RunPlan]:
    """Plans for a whole grid, indexed in iteration order.

    With ``sweep_seed`` given, each config's seed is replaced by
    :func:`derive_seed(sweep_seed, index) <derive_seed>`; left ``None``
    (the default) every config keeps its own seed, which is what the
    paper reproductions want (one shared seed across the grid).
    """
    plans: List[RunPlan] = []
    for index, config in enumerate(configs):
        if sweep_seed is not None:
            config = config.with_(seed=derive_seed(sweep_seed, index))
        plans.append(
            RunPlan(
                config=config,
                engine=engine,
                collect_responses=collect_responses,
                index=index,
            )
        )
    return plans
