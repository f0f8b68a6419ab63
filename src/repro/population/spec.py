"""Population specs: declarative client fleets over the plan layer.

The paper simulates *one* client against the broadcast; the systems it
argues about serve thousands.  A :class:`PopulationSpec` describes such
a fleet declaratively: named :class:`SegmentSpec` groups ("commuters",
"dashboards", ...), each giving a client count and *distributions* over
the client-side knobs — cache size, policy, offset, noise, think time,
workload drift.  The spec expands (:func:`expand`) into one frozen
:class:`~repro.exec.plan.RunPlan` per client, so a fleet rides the
existing executor/checkpoint machinery unchanged and inherits its
determinism contract: the expansion is a pure function of the spec.

Seeding: client ``i`` (global index across segments, in declaration
order) runs with ``derive_seed(spec.seed, i)`` — the same stride
:meth:`repro.sim.rng.RandomStreams.fork` uses — and its parameters are
sampled from the ``"population"`` stream of a :class:`RandomStreams`
rooted at that per-client seed, field by field in the fixed
:data:`SEGMENT_FIELDS` order.  A client's identity therefore depends
only on ``(spec.seed, i)`` and its segment's distributions — never on
fleet size, segment order elsewhere in the spec, or executor choice.

Specs round-trip through plain JSON dicts (:func:`spec_to_dict` /
:func:`spec_from_dict`) so fleets can live in version-controlled files
and be handed to ``python -m repro population --spec``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.exec.plan import RunPlan, check_engine, derive_seed
from repro.experiments.config import ExperimentConfig
from repro.sim.rng import RandomStreams

#: The client-side knobs a segment may distribute, in the (fixed,
#: alphabetical) order they are sampled.  Extending this tuple is a
#: compatibility event: it changes how many draws each client makes.
SEGMENT_FIELDS: Tuple[str, ...] = (
    "cache_size", "drift_rotations", "noise", "offset", "policy",
    "think_time",
)

#: Fields whose sampled values must be coerced to ints.
_INT_FIELDS = frozenset({"cache_size", "offset"})


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Every client in the segment gets exactly ``value``."""

    value: Union[int, float, str]

    def sample(self, rng):
        return self.value

    def to_dict(self) -> Dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class Choice:
    """Each client draws one of ``values`` (optionally weighted)."""

    values: Tuple[Union[int, float, str], ...]
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError("Choice needs at least one value")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(
                float(w) for w in self.weights
            ))
            if len(self.weights) != len(self.values):
                raise ConfigurationError(
                    f"Choice got {len(self.values)} values but "
                    f"{len(self.weights)} weights"
                )
            if any(w < 0 for w in self.weights) or not sum(self.weights):
                raise ConfigurationError(
                    "Choice weights must be >= 0 and sum to > 0"
                )

    def sample(self, rng):
        if self.weights is None:
            return self.values[int(rng.integers(0, len(self.values)))]
        total = sum(self.weights)
        mark = float(rng.random()) * total
        cumulative = 0.0
        for value, weight in zip(self.values, self.weights):
            cumulative += weight
            if mark < cumulative:
                return value
        return self.values[-1]  # mark == total after rounding

    def to_dict(self) -> Dict:
        payload: Dict = {"kind": "choice", "values": list(self.values)}
        if self.weights is not None:
            payload["weights"] = list(self.weights)
        return payload


@dataclass(frozen=True)
class UniformInt:
    """Each client draws an integer uniformly from ``[low, high]``."""

    low: int
    high: int

    def __post_init__(self):
        if self.high < self.low:
            raise ConfigurationError(
                f"UniformInt needs low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng):
        return int(rng.integers(self.low, self.high + 1))

    def to_dict(self) -> Dict:
        return {"kind": "uniform_int", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class Uniform:
    """Each client draws a float uniformly from ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self):
        if self.high < self.low:
            raise ConfigurationError(
                f"Uniform needs low <= high, got [{self.low}, {self.high})"
            )

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))

    def to_dict(self) -> Dict:
        return {"kind": "uniform", "low": self.low, "high": self.high}


Distribution = Union[Constant, Choice, UniformInt, Uniform]

_DISTRIBUTION_KINDS = {
    "constant": lambda d: Constant(d["value"]),
    "choice": lambda d: Choice(tuple(d["values"]),
                               tuple(d["weights"]) if "weights" in d
                               else None),
    "uniform_int": lambda d: UniformInt(int(d["low"]), int(d["high"])),
    "uniform": lambda d: Uniform(float(d["low"]), float(d["high"])),
}


def as_distribution(value) -> Distribution:
    """Coerce a literal (or pass through a distribution) for a segment field."""
    if isinstance(value, (Constant, Choice, UniformInt, Uniform)):
        return value
    if isinstance(value, (int, float, str)):
        return Constant(value)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a distribution; use Constant, "
        "Choice, UniformInt, Uniform, or a plain int/float/str"
    )


def distribution_from_dict(payload: Dict) -> Distribution:
    """Rebuild a distribution from its :meth:`to_dict` form."""
    kind = payload.get("kind")
    builder = _DISTRIBUTION_KINDS.get(kind)
    if builder is None:
        raise ConfigurationError(
            f"unknown distribution kind {kind!r}; valid kinds: "
            f"{', '.join(sorted(_DISTRIBUTION_KINDS))}"
        )
    return builder(payload)


# ---------------------------------------------------------------------------
# Segments and the population
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentSpec:
    """One named group of clients sharing parameter distributions.

    Fields left ``None`` inherit the population's base config; plain
    literals are wrapped in :class:`Constant`.
    """

    name: str
    clients: int
    cache_size: Optional[Distribution] = None
    drift_rotations: Optional[Distribution] = None
    noise: Optional[Distribution] = None
    offset: Optional[Distribution] = None
    policy: Optional[Distribution] = None
    think_time: Optional[Distribution] = None

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("segment name must be non-empty")
        if self.clients < 1:
            raise ConfigurationError(
                f"segment {self.name!r} needs clients >= 1, "
                f"got {self.clients}"
            )
        for field_name in SEGMENT_FIELDS:
            value = getattr(self, field_name)
            if value is not None:
                object.__setattr__(
                    self, field_name, as_distribution(value)
                )

    def distributions(self) -> Dict[str, Distribution]:
        """The distributed fields, keyed by config field name."""
        return {
            field_name: getattr(self, field_name)
            for field_name in SEGMENT_FIELDS
            if getattr(self, field_name) is not None
        }

    def to_dict(self) -> Dict:
        payload: Dict = {"name": self.name, "clients": self.clients}
        for field_name, dist in self.distributions().items():
            payload[field_name] = dist.to_dict()
        return payload


@dataclass(frozen=True)
class PopulationSpec:
    """A declarative client fleet: base config + named segments + seed."""

    name: str
    segments: Tuple[SegmentSpec, ...]
    base: ExperimentConfig = ExperimentConfig()
    seed: int = 42
    engine: str = "fast"

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.name:
            raise ConfigurationError("population name must be non-empty")
        if not self.segments:
            raise ConfigurationError(
                f"population {self.name!r} needs at least one segment"
            )
        names = [segment.name for segment in self.segments]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"population {self.name!r} has duplicate segment names: "
                f"{', '.join(sorted(set(n for n in names if names.count(n) > 1)))}"
            )
        check_engine(self.engine)

    @property
    def num_clients(self) -> int:
        """Total clients across every segment."""
        return sum(segment.clients for segment in self.segments)

    def segment_ranges(self) -> List[Tuple[SegmentSpec, range]]:
        """Each segment with its global client-index range, in order."""
        ranges: List[Tuple[SegmentSpec, range]] = []
        start = 0
        for segment in self.segments:
            ranges.append((segment, range(start, start + segment.clients)))
            start += segment.clients
        return ranges

    def to_dict(self) -> Dict:
        return spec_to_dict(self)


def client_overrides(
    spec: PopulationSpec, segment: SegmentSpec, index: int
) -> Dict[str, object]:
    """The sampled field overrides of global client ``index``.

    The draw protocol behind :func:`client_config`, exposed on its own
    so the batch fleet can bucket clients by their sampled identity
    (sub-segmentation) without constructing a config per client: draws
    come from the ``"population"`` stream rooted at the client's
    :func:`~repro.exec.plan.derive_seed` seed, consumed in
    :data:`SEGMENT_FIELDS` order (skipping undistributed fields), and
    coerced exactly as the config would coerce them.
    """
    rng = RandomStreams(derive_seed(spec.seed, index)).stream("population")
    overrides: Dict[str, object] = {}
    for field_name in SEGMENT_FIELDS:
        distribution = getattr(segment, field_name)
        if distribution is None:
            continue
        value = distribution.sample(rng)
        if field_name in _INT_FIELDS:
            value = int(value)
        elif field_name != "policy":
            value = float(value)
        overrides[field_name] = value
    return overrides


def client_config(
    spec: PopulationSpec, segment: SegmentSpec, index: int
) -> ExperimentConfig:
    """The frozen config of global client ``index`` in ``segment``.

    Pure function of ``(spec.seed, index, segment distributions, base)``:
    the per-client seed is :func:`~repro.exec.plan.derive_seed` of the
    population seed and the client's global index, and the parameter
    draws come from that seed's own ``"population"`` stream via
    :func:`client_overrides`.
    """
    return spec.base.with_(
        seed=derive_seed(spec.seed, index),
        label=f"{spec.name}/{segment.name}/client{index}",
        **client_overrides(spec, segment, index),
    )


def expand(spec: PopulationSpec) -> List[RunPlan]:
    """One plan per client, indexed globally in segment declaration order."""
    plans: List[RunPlan] = []
    for segment, indices in spec.segment_ranges():
        for index in indices:
            plans.append(RunPlan(
                config=client_config(spec, segment, index),
                engine=spec.engine,
                collect_responses=False,
                index=index,
            ))
    return plans


def scale_spec(spec: PopulationSpec, num_clients: int) -> PopulationSpec:
    """A copy of ``spec`` resized to exactly ``num_clients`` clients.

    Segment counts scale proportionally (largest-remainder rounding,
    at least one client per segment), so ``--clients 1000`` turns a
    10-client demo spec into the same fleet shape at scale.  Purely
    arithmetic — the scaled spec is as deterministic as the original.
    """
    if num_clients < len(spec.segments):
        raise ConfigurationError(
            f"cannot scale {spec.name!r} to {num_clients} clients: it "
            f"has {len(spec.segments)} segments (one client minimum each)"
        )
    total = spec.num_clients
    raw = [
        segment.clients * num_clients / total for segment in spec.segments
    ]
    counts = [max(1, int(value)) for value in raw]
    shortfall = num_clients - sum(counts)
    if shortfall > 0:
        # Hand out the remainder to the largest fractional parts.
        order = sorted(
            range(len(raw)),
            key=lambda i: (-(raw[i] - int(raw[i])), i),
        )
        for step in range(shortfall):
            counts[order[step % len(order)]] += 1
    else:
        order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
        step = 0
        while shortfall < 0:
            index = order[step % len(order)]
            if counts[index] > 1:
                counts[index] -= 1
                shortfall += 1
            step += 1
    segments = tuple(
        replace(segment, clients=count)
        for segment, count in zip(spec.segments, counts)
    )
    return replace(spec, segments=segments)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

#: Schema tag embedded in serialised specs.
SPEC_SCHEMA = "repro.population.spec/1"

#: Config fields stored as tuples (JSON has only lists).
_TUPLE_CONFIG_FIELDS = ("disk_sizes", "rel_freqs")


def spec_to_dict(spec: PopulationSpec) -> Dict:
    """A JSON-ready dict that :func:`spec_from_dict` rebuilds exactly."""
    base: Dict = {}
    for config_field in fields(ExperimentConfig):
        base[config_field.name] = getattr(spec.base, config_field.name)
    for name in _TUPLE_CONFIG_FIELDS:
        if base[name] is not None:
            base[name] = list(base[name])
    return {
        "schema": SPEC_SCHEMA,
        "name": spec.name,
        "seed": spec.seed,
        "engine": spec.engine,
        "base": base,
        "segments": [segment.to_dict() for segment in spec.segments],
    }


def spec_from_dict(payload: Dict) -> PopulationSpec:
    """Rebuild a :class:`PopulationSpec` from :func:`spec_to_dict` output."""
    schema = payload.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise ConfigurationError(
            f"unsupported population spec schema {schema!r} "
            f"(expected {SPEC_SCHEMA!r})"
        )
    base_payload = dict(payload.get("base", {}))
    for name in _TUPLE_CONFIG_FIELDS:
        if base_payload.get(name) is not None:
            base_payload[name] = tuple(base_payload[name])
    known = {config_field.name for config_field in fields(ExperimentConfig)}
    unknown = sorted(set(base_payload) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown base-config fields: {', '.join(unknown)}"
        )
    segments = []
    for segment_payload in payload.get("segments", []):
        distributed = {
            field_name: distribution_from_dict(segment_payload[field_name])
            for field_name in SEGMENT_FIELDS
            if field_name in segment_payload
        }
        segments.append(SegmentSpec(
            name=segment_payload["name"],
            clients=int(segment_payload["clients"]),
            **distributed,
        ))
    return PopulationSpec(
        name=payload["name"],
        segments=tuple(segments),
        base=ExperimentConfig(**base_payload),
        seed=int(payload.get("seed", 42)),
        engine=payload.get("engine", "fast"),
    )
