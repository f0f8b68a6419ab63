"""Experiment configuration: the paper's Tables 2, 3, and 4 in one place.

Client parameters (Table 2): CacheSize, ThinkTime, AccessRange, θ,
RegionSize.  Server parameters (Table 3): ServerDBSize, NumDisks,
DiskSize(i), Δ, Offset, Noise.  Study settings (Table 4) are the
defaults: ServerDBSize 5000, AccessRange 1000, ThinkTime 2.0, θ 0.95,
RegionSize 50, 15,000 measured requests after cache warm-up.

The five disk configurations the paper studies are exposed as
:data:`DISK_PRESETS`: D1⟨500,4500⟩, D2⟨900,4100⟩, D3⟨2500,2500⟩,
D4⟨300,1200,3500⟩, D5⟨500,2000,2500⟩.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.cache.base import PolicyContext
from repro.cache.registry import make_policy, policy_oracles
from repro.core.disks import DiskLayout, disk_index_array
from repro.core.programs import _flat_program, _multidisk_program
from repro.core.schedule import (
    BroadcastProgram,
    BroadcastSchedule,
    frequency_array,
)
from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.zipf import ZipfRegionDistribution

#: The paper's five disk configurations (Figure 5), sizes in pages.
DISK_PRESETS: Dict[str, Tuple[int, ...]] = {
    "D1": (500, 4500),
    "D2": (900, 4100),
    "D3": (2500, 2500),
    "D4": (300, 1200, 3500),
    "D5": (500, 2000, 2500),
}

#: Noise levels swept in Experiments 2-5.
NOISE_LEVELS: Tuple[float, ...] = (0.00, 0.15, 0.30, 0.45, 0.60, 0.75)

#: Δ values swept along the x-axis of Figures 5-9 and 13.
DELTA_RANGE: Tuple[int, ...] = tuple(range(0, 8))


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified broadcast-disk experiment."""

    # -- server (Table 3) ----------------------------------------------------
    disk_sizes: Tuple[int, ...] = DISK_PRESETS["D5"]
    delta: int = 0
    rel_freqs: Optional[Tuple[int, ...]] = None  # overrides delta if given
    offset: int = 0
    noise: float = 0.0
    #: By default the noise coin is tossed for the client's access-range
    #: pages — the pages "for which there may be a mismatch between the
    #: client and the server" (§4.2) — which keeps Noise the upper bound
    #: on deviation the paper's footnote 3 asserts and calibrates the
    #: reproduction to the paper's Figure 9/10 crossovers.  Set True to
    #: toss the coin over every database page instead (a harsher model:
    #: fast-disk pages become frequent swap victims).
    noise_over_full_database: bool = False

    # -- client (Table 2) ----------------------------------------------------
    cache_size: int = 1
    think_time: float = 2.0
    access_range: int = 1000
    theta: float = 0.95
    region_size: int = 50
    policy: str = "LRU"
    lix_alpha: float = 0.25
    #: Workload drift (§3): how many full hotspot rotations the client's
    #: access distribution completes over the run (warm-up included).
    #: 0.0 (the default) keeps the paper's static Zipf profile.  When
    #: drifting, the trace follows the rotated distribution while the
    #: policy's probability oracle keeps the frozen t=0 snapshot — §3's
    #: stale-profile scenario, which this field alone runs
    #: (``figures.drift_study`` sweeps it).
    drift_rotations: float = 0.0

    # -- measurement protocol (Table 4 / §5 preamble) -------------------------
    num_requests: int = 15_000
    warmup_requests: Optional[int] = None  # explicit warm-up length override
    #: §5 measures "once the client performance reached steady state".
    #: With ``warmup_requests=None``, warm-up runs until the cache is
    #: full and then for ``steady_state_factor * num_requests`` further
    #: requests so the cache-convergence transient is excluded.  Set to
    #: 0.0 to measure straight after the cache fills.
    steady_state_factor: float = 2.0
    seed: int = 42

    # -- presentation ------------------------------------------------------
    label: str = ""

    # -- multi-channel broadcast (keyword-only; defaults reproduce the
    # single-channel paper setting, and both fields are omitted from
    # serialized config dicts at their defaults so existing config
    # hashes, bench-history baselines and checkpoints stay valid) -----------
    channels: int = field(default=1, kw_only=True)
    retune_cost: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        for name in ("think_time", "theta", "steady_state_factor",
                     "drift_rotations", "retune_cost"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.warmup_requests is not None and self.warmup_requests < 0:
            raise ConfigurationError(
                f"warmup_requests must be >= 0, got {self.warmup_requests}"
            )
        if self.cache_size < 1:
            raise ConfigurationError(
                f"cache_size must be >= 1 (1 means no caching), "
                f"got {self.cache_size}"
            )
        if self.think_time < 0:
            raise ConfigurationError(
                f"think_time must be >= 0, got {self.think_time}"
            )
        if self.num_requests < 1:
            raise ConfigurationError(
                f"num_requests must be >= 1, got {self.num_requests}"
            )
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigurationError(f"noise must be in [0, 1], got {self.noise}")
        if self.access_range > self.server_db_size:
            raise ConfigurationError(
                f"access_range {self.access_range} exceeds the database "
                f"size {self.server_db_size} (§4.2: ServerDBSize >= AccessRange)"
            )
        if self.warmup_requests is None and self.cache_size > self.access_range:
            # §5 warm-up waits for a full cache, but a client requests
            # at most access_range distinct pages: it would never fill.
            raise ConfigurationError(
                f"cache_size {self.cache_size} exceeds access_range "
                f"{self.access_range}: a client requests at most "
                "access_range distinct pages, so the cache never fills "
                "and the §5 warm-up never ends; lower cache_size or set "
                "warmup_requests"
            )
        if not 0 <= self.offset <= self.server_db_size:
            raise ConfigurationError(
                f"offset must be in [0, {self.server_db_size}], got {self.offset}"
            )
        if self.steady_state_factor < 0:
            raise ConfigurationError(
                f"steady_state_factor must be >= 0, got {self.steady_state_factor}"
            )
        if self.drift_rotations < 0:
            raise ConfigurationError(
                f"drift_rotations must be >= 0, got {self.drift_rotations}"
            )
        if not 1 <= self.channels <= self.server_db_size:
            raise ConfigurationError(
                f"channels must be in [1, {self.server_db_size}], "
                f"got {self.channels}"
            )
        if self.retune_cost < 0:
            raise ConfigurationError(
                f"retune_cost must be >= 0, got {self.retune_cost}"
            )

    # -- derived quantities -------------------------------------------------
    @property
    def server_db_size(self) -> int:
        """Total pages broadcast (the paper's ServerDBSize)."""
        return sum(self.disk_sizes)

    @property
    def num_disks(self) -> int:
        """Number of broadcast disks."""
        return len(self.disk_sizes)

    @property
    def has_cache(self) -> bool:
        """True when the client has more than the trivial one-page cache."""
        return self.cache_size > 1

    @property
    def extra_warmup(self) -> int:
        """Steady-state shake-out requests after the cache fills.

        Zero when an explicit ``warmup_requests`` is given or there is no
        cache worth converging.
        """
        if self.warmup_requests is not None or not self.has_cache:
            return 0
        return int(self.steady_state_factor * self.num_requests)

    def describe(self) -> str:
        """Short human-readable identifier for reports."""
        if self.label:
            return self.label
        sizes = ",".join(str(s) for s in self.disk_sizes)
        return (
            f"<{sizes}> Δ={self.delta} noise={self.noise:.0%} "
            f"cache={self.cache_size} policy={self.policy}"
        )

    # -- component builders ----------------------------------------------------
    def build_layout(self) -> DiskLayout:
        """The disk layout implied by sizes and Δ (or explicit frequencies)."""
        if self.rel_freqs is not None:
            return DiskLayout(self.disk_sizes, self.rel_freqs)
        return DiskLayout.from_delta(self.disk_sizes, self.delta)

    def build_schedule(
        self, layout: Optional[DiskLayout] = None
    ) -> Union[BroadcastSchedule, BroadcastProgram]:
        """The periodic broadcast program for this configuration.

        ``channels == 1`` (the paper's setting) takes the legacy
        single-schedule path untouched; ``channels > 1`` partitions the
        pages across parallel channels (conflict-aware assignment guided
        by the server's canonical Zipf estimate of the hot set) and
        returns a :class:`BroadcastProgram`.
        """
        layout = layout or self.build_layout()
        if self.channels > 1:
            from repro.core.channels import build_program

            return build_program(
                layout,
                self.channels,
                probabilities=self._server_probabilities(layout),
                retune_cost=self.retune_cost,
            )
        if layout.is_flat:
            # Flat layouts produce the canonical one-copy-per-page cycle
            # (identical timing, trivial period).
            return _flat_program(layout.total_pages)
        return _multidisk_program(layout)

    def _server_probabilities(self, layout: DiskLayout) -> Dict[int, float]:
        """The server's access-probability estimate over physical pages.

        The server lays pages out hottest-to-coldest (§4.2), so its best
        estimate is the canonical Zipf profile over the first
        ``access_range`` physical pages — the same assumption the §2.2
        disk partitioning itself rests on.
        """
        probabilities = self.build_distribution().probabilities()
        limit = min(self.access_range, layout.total_pages)
        return {
            page: float(probabilities[page]) for page in range(limit)
        }

    def build_streams(self) -> RandomStreams:
        """The experiment's named random streams."""
        return RandomStreams(self.seed)

    def build_distribution(self) -> ZipfRegionDistribution:
        """The client's Zipf-over-regions access distribution."""
        return ZipfRegionDistribution(
            access_range=self.access_range,
            region_size=self.region_size,
            theta=self.theta,
        )

    def build_drift(self, horizon: int):
        """The drifting access distribution for a ``horizon``-request run."""
        from repro.workload.drift import DriftingZipfDistribution

        return DriftingZipfDistribution(
            access_range=self.access_range,
            region_size=self.region_size,
            theta=self.theta,
            horizon=horizon,
            rotations=self.drift_rotations,
        )

    def build_mapping(
        self,
        layout: Optional[DiskLayout] = None,
        streams: Optional[RandomStreams] = None,
    ) -> LogicalPhysicalMapping:
        """The §4.2 logical→physical mapping (offset + noise)."""
        layout = layout or self.build_layout()
        streams = streams or self.build_streams()
        return LogicalPhysicalMapping(
            layout=layout,
            offset=self.offset,
            noise=self.noise,
            rng=streams.stream("noise"),
            noise_scope=(
                None if self.noise_over_full_database else self.access_range
            ),
        )

    def build_policy(
        self,
        schedule: Union[BroadcastSchedule, BroadcastProgram],
        mapping: LogicalPhysicalMapping,
        distribution: ZipfRegionDistribution,
        layout: Optional[DiskLayout] = None,
    ):
        """The client's cache policy wired to its oracles.

        Each oracle the policy reads (:func:`~repro.cache.registry.
        policy_oracles`; LRU reads none) answers from a per-run table
        over the access range — the pages a trace can request — indexed
        by logical page and gathered once in NumPy through the mapping
        from the distribution, the schedule's
        :func:`~repro.core.schedule.frequency_array` and the layout's
        :func:`~repro.core.disks.disk_index_array`.  The answers are
        the scalar queries' own: ``probability`` is 0.0 outside
        ``[0, access_range)``, and any other page, or one the broadcast
        never carries (table 0.0) or the layout does not hold (table
        -1), is handed to the scalar query, which raises for those.
        """
        layout = layout or self.build_layout()
        oracles = policy_oracles(self.policy)
        access_range = self.access_range
        physical = mapping.physical_array()[:access_range]
        context = PolicyContext(
            num_disks=layout.num_disks, lix_alpha=self.lix_alpha
        )
        if "probability" in oracles:
            probabilities = (
                distribution.probabilities()[:access_range].tolist()
            )

            def probability(page: int) -> float:
                return probabilities[page] if 0 <= page < access_range else 0.0

            context.probability = probability
        if "frequency" in oracles:
            frequencies = _gather(frequency_array(schedule), physical, 0.0)

            def frequency(page: int) -> float:
                if 0 <= page < access_range:
                    value = frequencies[page]
                    if value:
                        return value
                return schedule.frequency(mapping.to_physical(page))

            context.frequency = frequency
        if "disk_of" in oracles:
            disks = _gather(disk_index_array(layout), physical, -1)

            def disk_of(page: int) -> int:
                if 0 <= page < access_range:
                    disk = disks[page]
                    if disk >= 0:
                        return disk
                return layout.disk_of_page(mapping.to_physical(page))

            context.disk_of = disk_of
        return make_policy(self.policy, self.cache_size, context)

    def with_(self, **overrides) -> "ExperimentConfig":
        """A modified copy (dataclasses.replace with a shorter name)."""
        return replace(self, **overrides)


def _gather(table: np.ndarray, physical: np.ndarray, missing) -> list:
    """``table[physical]`` as a list, ``missing`` where a physical page
    lies past the table's end."""
    inside = physical < len(table)
    return np.where(
        inside, table[np.where(inside, physical, 0)], missing
    ).tolist()
