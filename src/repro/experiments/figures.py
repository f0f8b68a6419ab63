"""One entry point per table and figure of the paper's evaluation (§5).

Every function returns a :class:`FigureData`: the x-axis, one y-series
per curve, and enough labelling to print a table matching the paper's
plot.  All functions accept ``num_requests`` and ``seed`` so tests can
run them at reduced scale; the defaults are the paper's (``num_requests``
15,000, Table 4 parameters).

The module also contains the extension studies promised in DESIGN.md §6:
bus-stop paradox, broadcast shaping, PT prefetching, the policy zoo,
(1, m) indexing (flat and multidisk-integrated), volatile data with
invalidation reports, and workload drift.  The hybrid push/pull study
lives in :mod:`repro.hybrid.study` (it needs the process engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.analysis import (
    flat_expected_delay,
    program_comparison,
    sqrt_rule_lower_bound,
    table1_rows,
)
from repro.core.disks import DiskLayout
from repro.core.optimizer import compare_presets, optimize_layout
from repro.exec.build import BuildCache
from repro.experiments.config import (
    DELTA_RANGE,
    DISK_PRESETS,
    NOISE_LEVELS,
    ExperimentConfig,
)
from repro.experiments.runner import ExperimentResult, sweep_results

#: Number of measured requests in the paper's protocol.
PAPER_REQUESTS = 15_000

#: Paper figures accept ``jobs`` (worker processes; results are
#: byte-identical to serial at any count) and ``engine`` (any of
#: :data:`repro.exec.plan.ENGINES`: "batch", "fast", "fast-reference"
#: or "process"); each runs its whole design grid as one sweep, curve
#: by curve, through :func:`_sweep_rows`.


@dataclass
class FigureData:
    """The series behind one figure (or table) of the paper."""

    figure: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def add_series(self, name: str, values: Sequence[float]) -> None:
        """Attach one named curve; must align with ``x_values``."""
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points for "
                f"{len(self.x_values)} x values"
            )
        self.series[name] = values

    def row_iter(self):
        """Yield ``(x, {series: y})`` rows for tabulation."""
        for index, x in enumerate(self.x_values):
            yield x, {name: ys[index] for name, ys in self.series.items()}


def _design_point(
    preset: str, num_requests: int, seed: int, **fields
) -> ExperimentConfig:
    """One Table 4 design point on the paper's disk ``preset``.

    ``fields`` set what the figure varies (Δ, cache size, offset,
    policy, noise, label, ...); everything else keeps its default.
    """
    return ExperimentConfig(disk_sizes=DISK_PRESETS[preset],
                            num_requests=num_requests, seed=seed, **fields)


def _sweep_rows(
    grid: Sequence[Sequence[ExperimentConfig]], **run
) -> List[List[ExperimentResult]]:
    """Run a grid of design points, one list per curve, as one sweep.

    The configs run curve by curve in one ``sweep_results`` call, which
    takes ``run`` (``jobs``, ``engine``, ``profile``), so they share one
    build cache and the workers.  The results come back in the grid's
    shape, one row per curve.
    """
    results = iter(sweep_results(
        [config for row in grid for config in row], **run
    ))
    return [[next(results) for _config in row] for row in grid]


def _means(row: Sequence[ExperimentResult]) -> List[float]:
    return [result.mean_response_time for result in row]


# ---------------------------------------------------------------------------
# Table 1 (with Figure 2's example programs)
# ---------------------------------------------------------------------------

def table1() -> FigureData:
    """Expected delay of the flat / skewed / multi-disk example programs.

    Analytic, exact: must match the paper's Table 1 to the printed
    precision (flat always 1.50; e.g. the uniform row is
    1.50 / 1.75 / 1.67).
    """
    rows = table1_rows()
    data = FigureData(
        figure="Table 1",
        title="Expected delay for various access probabilities",
        x_label="P(A),P(B),P(C)",
        x_values=[f"{a:.3f},{b:.3f},{c:.3f}" for (a, b, c), _d in rows],
        notes="Analytic expected delay in broadcast units (Figure 2 programs).",
    )
    for program in ("flat", "skewed", "multidisk"):
        data.add_series(program, [delays[program] for _mix, delays in rows])
    return data


# ---------------------------------------------------------------------------
# Experiment 1 — Figure 5: response time vs delta, no cache, no noise
# ---------------------------------------------------------------------------

def figure5(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    presets: Sequence[str] = ("D1", "D2", "D3", "D4", "D5"),
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Client response time vs Δ for the five disk configurations.

    CacheSize=1 (no caching), Noise=0%, Offset=0.  Expected shape: all
    configurations beat the flat disk (2500 bu) once Δ>=1; D4 is best
    (≈1/3 of flat at Δ=7); D1 bottoms out around Δ=3-5 then degrades;
    D2 keeps improving; D3 is the worst two-disk configuration.
    """
    data = FigureData(
        figure="Figure 5",
        title="Client performance, CacheSize=1, Noise=0%",
        x_label="delta",
        x_values=list(deltas),
        notes=f"flat-disk reference: {flat_expected_delay(5000):.0f} bu",
    )
    rows = _sweep_rows([
        [_design_point(preset, num_requests, seed, delta=delta,
                       label=f"F5 {preset} Δ={delta}") for delta in deltas]
        for preset in presets
    ], jobs=jobs, engine=engine, profile=profile)
    for preset, row in zip(presets, rows):
        sizes = ",".join(str(s) for s in DISK_PRESETS[preset])
        data.add_series(f"{preset}<{sizes}>", _means(row))
    return data


# ---------------------------------------------------------------------------
# Experiment 2 — Figures 6 and 7: noise sensitivity without a cache
# ---------------------------------------------------------------------------

def _noise_sensitivity(
    figure: str, preset: str, cache_size: int, policy: str, offset: int,
    num_requests: int, seed: int, deltas: Sequence[int],
    noises: Sequence[float], **run,
) -> FigureData:
    sizes = ",".join(str(s) for s in DISK_PRESETS[preset])
    data = FigureData(
        figure=figure,
        title=(
            f"Noise sensitivity — Disk {preset}<{sizes}> "
            f"CacheSize={cache_size}"
            + (f", policy={policy}" if cache_size > 1 else "")
        ),
        x_label="delta",
        x_values=list(deltas),
    )
    rows = _sweep_rows([
        [_design_point(preset, num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=offset,
                       label=f"{figure} {preset} Δ={delta} noise={noise:.0%}")
         for delta in deltas]
        for noise in noises
    ], **run)
    for noise, row in zip(noises, rows):
        data.add_series(f"Noise {noise:.0%}", _means(row))
    return data


def figure6(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    noises: Sequence[float] = NOISE_LEVELS,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Noise sensitivity of D3⟨2500,2500⟩ with no cache.

    Expected shape: noise erodes the multi-disk benefit; at high noise
    the skewed configurations cross above the flat disk's 2500 bu.
    """
    return _noise_sensitivity(
        "Figure 6", "D3", 1, "LRU", 0, num_requests, seed, deltas, noises,
        jobs=jobs, engine=engine, profile=profile,
    )


def figure7(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    noises: Sequence[float] = NOISE_LEVELS,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Noise sensitivity of D5⟨500,2000,2500⟩ with no cache."""
    return _noise_sensitivity(
        "Figure 7", "D5", 1, "LRU", 0, num_requests, seed, deltas, noises,
        jobs=jobs, engine=engine, profile=profile,
    )


# ---------------------------------------------------------------------------
# Experiment 3 — Figure 8: the idealised P policy under noise
# Experiment 4 — Figure 9: PIX under noise
# ---------------------------------------------------------------------------

def figure8(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    noises: Sequence[float] = NOISE_LEVELS,
    cache_size: int = 500,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """P policy, D5, CacheSize=Offset=500, noise sweep.

    Expected shape: absolute response times drop versus Figure 7, but P
    is *more* sensitive to noise — its high-noise curves cross the flat
    disk for Δ>2 (its misses land on slow disks).
    """
    return _noise_sensitivity(
        "Figure 8", "D5", cache_size, "P", cache_size,
        num_requests, seed, deltas, noises, jobs=jobs, engine=engine, profile=profile,
    )


def figure9(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    noises: Sequence[float] = NOISE_LEVELS,
    cache_size: int = 500,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """PIX policy, same setting as Figure 8.

    Expected shape: PIX stays below the flat-disk reference for every
    noise level and Δ in the studied range, and is stable as Δ grows.
    """
    return _noise_sensitivity(
        "Figure 9", "D5", cache_size, "PIX", cache_size,
        num_requests, seed, deltas, noises, jobs=jobs, engine=engine, profile=profile,
    )


# ---------------------------------------------------------------------------
# Figure 10: P vs PIX vs noise at delta 3 and 5, flat baseline
# ---------------------------------------------------------------------------

def figure10(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    noises: Sequence[float] = NOISE_LEVELS,
    deltas: Sequence[int] = (3, 5),
    cache_size: int = 500,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """P vs PIX with varying noise (D5, CacheSize=500, Offset=500).

    Expected shape: P degrades faster and crosses the flat baseline near
    Noise≈45%; PIX rises gently and stays below flat throughout.
    """
    data = FigureData(
        figure="Figure 10",
        title=f"P vs PIX with varying noise — Disk D5, CacheSize={cache_size}",
        x_label="noise",
        x_values=[f"{n:.0%}" for n in noises],
    )
    curves = [(policy, delta) for policy in ("P", "PIX") for delta in deltas]
    grid = [
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size,
                       label=f"F10 {policy} Δ={delta} noise={noise:.0%}")
         for noise in noises]
        for policy, delta in curves
    ]
    # Flat-disk baseline (Δ=0), one run after the curves: frequency is
    # uniform, so P and PIX coincide (paper footnote 6); noise has no
    # effect on a flat disk.
    grid.append([_design_point("D5", num_requests, seed, delta=0,
                               cache_size=cache_size, policy="P",
                               offset=cache_size, label="F10 flat")])
    *rows, (flat,) = _sweep_rows(grid, jobs=jobs, engine=engine,
                                 profile=profile)
    for (policy, delta), row in zip(curves, rows):
        data.add_series(f"{policy} Δ={delta}", _means(row))
    data.add_series("Flat Δ=0", [flat.mean_response_time] * len(noises))
    return data


# ---------------------------------------------------------------------------
# Figures 11 and 14: where each policy gets its pages from
# ---------------------------------------------------------------------------

def _access_locations(
    figure: str, title: str, tag: str, policies: Sequence[str],
    num_requests: int, seed: int, cache_size: int, noise: float, delta: int,
    **run,
) -> FigureData:
    """Share of requests served by the cache and by each disk, per policy
    (D5, CacheSize=Offset=``cache_size``)."""
    locations = ["cache", "disk1", "disk2", "disk3"]
    data = FigureData(
        figure=figure,
        title=f"{title} — D5, CacheSize={cache_size}, "
        f"Noise={noise:.0%}, Δ={delta}",
        x_label="location",
        x_values=locations,
    )
    rows = _sweep_rows([
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size, label=f"{tag} {policy}")]
        for policy in policies
    ], **run)
    for policy, (result,) in zip(policies, rows):
        data.add_series(
            policy,
            [result.access_locations.get(place, 0.0) for place in locations],
        )
    return data


def figure11(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    cache_size: int = 500,
    noise: float = 0.30,
    delta: int = 3,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Access locations (cache, disk 1..3) for P vs PIX.

    D5, CacheSize=500, Noise=30%, Δ=3.  Expected shape: P has the higher
    cache hit rate, but PIX takes fewer pages from the slowest disk —
    the trade that wins it the response-time comparison.
    """
    return _access_locations(
        "Figure 11", "Access locations for P vs PIX", "F11", ("P", "PIX"),
        num_requests, seed, cache_size, noise, delta,
        jobs=jobs, engine=engine, profile=profile,
    )


# ---------------------------------------------------------------------------
# Experiment 5 — Figures 13, 14, 15: the implementable policies
# ---------------------------------------------------------------------------

def figure13(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    cache_size: int = 500,
    noise: float = 0.30,
    policies: Sequence[str] = ("LRU", "L", "LIX", "PIX"),
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """LRU vs L vs LIX (vs the PIX ideal) across Δ.

    D5, CacheSize=Offset=500, Noise=30%.  Expected shape: LRU worst and
    degrading with Δ; L better at small Δ then degrading; LIX a fraction
    (roughly 25-50%) of L's response time; PIX slightly below LIX.
    """
    data = FigureData(
        figure="Figure 13",
        title=f"Sensitivity to Δ — D5, CacheSize={cache_size}, Noise={noise:.0%}",
        x_label="delta",
        x_values=list(deltas),
    )
    rows = _sweep_rows([
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size, label=f"F13 {policy} Δ={delta}")
         for delta in deltas]
        for policy in policies
    ], jobs=jobs, engine=engine, profile=profile)
    for policy, row in zip(policies, rows):
        data.add_series(policy, _means(row))
    return data


def figure14(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    cache_size: int = 500,
    noise: float = 0.30,
    delta: int = 3,
    policies: Sequence[str] = ("LRU", "L", "LIX"),
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Access locations for the implementable policies (Δ=3, Noise=30%).

    Expected shape: similar cache hit rates, but LIX obtains a much
    smaller share of its pages from the slowest disk.
    """
    return _access_locations(
        "Figure 14", "Page access locations", "F14", policies,
        num_requests, seed, cache_size, noise, delta,
        jobs=jobs, engine=engine, profile=profile,
    )


def figure15(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    noises: Sequence[float] = NOISE_LEVELS,
    cache_size: int = 500,
    delta: int = 3,
    policies: Sequence[str] = ("LRU", "L", "LIX"),
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """LRU vs L vs LIX with varying noise at Δ=3.

    Expected shape: L only somewhat better than LRU; LIX degrades with
    noise but beats both across the whole range.
    """
    data = FigureData(
        figure="Figure 15",
        title=f"Noise sensitivity — D5, CacheSize={cache_size}, Δ={delta}",
        x_label="noise",
        x_values=[f"{n:.0%}" for n in noises],
    )
    rows = _sweep_rows([
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size,
                       label=f"F15 {policy} noise={noise:.0%}")
         for noise in noises]
        for policy in policies
    ], jobs=jobs, engine=engine, profile=profile)
    for policy, row in zip(policies, rows):
        data.add_series(policy, _means(row))
    return data


# ---------------------------------------------------------------------------
# Extension studies (DESIGN.md §6)
# ---------------------------------------------------------------------------

def bus_stop_paradox(
    *, seed: int = 42,
    random_trials: int = 16,
) -> FigureData:
    """Flat vs skewed vs random vs multidisk on a small skewed workload.

    Quantifies §2.1's argument: for the same bandwidth allocation, the
    fixed-inter-arrival multidisk program beats both the clustered
    skewed program and the randomised program.
    """
    from repro.sim.rng import RandomStreams
    from repro.workload.zipf import ZipfRegionDistribution

    # Δ=1 keeps the cold majority cheap enough that the multidisk program
    # beats flat under this whole-database Zipf access pattern.
    layout = DiskLayout.from_delta((10, 30, 60), delta=1)
    distribution = ZipfRegionDistribution(
        access_range=100, region_size=10, theta=1.20
    )
    probabilities = distribution.probability_map()
    rng = RandomStreams(seed).stream("figures.bus_stop_paradox")
    comparison = program_comparison(
        layout, probabilities, rng=rng, random_trials=random_trials
    )
    order = ["flat", "skewed", "random", "multidisk"]
    data = FigureData(
        figure="Extension: Bus Stop Paradox",
        title="Expected delay by program type — layout ⟨10,30,60⟩ Δ=1",
        x_label="program",
        x_values=order,
        notes=f"sqrt-rule lower bound: {sqrt_rule_lower_bound(probabilities):.2f} bu",
    )
    data.add_series(
        "expected delay", [comparison[name] for name in order]
    )
    return data


def shaping_ablation(
    *, num_requests: int = 5_000,
    seed: int = 42,
    max_disks: int = 3,
) -> FigureData:
    """Optimiser-chosen layout vs the paper's D1-D5 presets.

    The analytic optimum is validated by simulation at Noise=0,
    CacheSize=1 (the setting where the analytic model is exact).
    """
    distribution = ExperimentConfig().build_distribution()
    probabilities = distribution.probability_map()
    shaped = optimize_layout(
        probabilities, total_pages=5000, max_disks=max_disks
    )
    presets = {
        name: DiskLayout.from_delta(sizes, 3)
        for name, sizes in DISK_PRESETS.items()
    }
    analytic = compare_presets(presets, probabilities)

    names = [*analytic, "optimised"]
    analytic_values = [*analytic.values(), shaped.expected_delay]
    layouts = [presets.get(name) or shaped.layout for name in names]
    simulated = sweep_results([
        ExperimentConfig(
            disk_sizes=layout.sizes,
            rel_freqs=layout.rel_freqs,
            cache_size=1,
            num_requests=num_requests,
            seed=seed,
            label=f"shaping {name}",
        )
        for name, layout in zip(names, layouts)
    ])
    data = FigureData(
        figure="Extension: Broadcast shaping",
        title="Analytic vs simulated expected delay per layout (Δ=3 presets)",
        x_label="layout",
        x_values=names,
        notes=(
            f"optimised layout {shaped.layout.describe()} Δ={shaped.delta}, "
            f"lower bound {shaped.lower_bound:.0f} bu, "
            f"{shaped.evaluated} candidates evaluated"
        ),
    )
    data.add_series("analytic", analytic_values)
    data.add_series("simulated", _means(simulated))
    return data


def prefetch_comparison(
    *, num_requests: int = 3_000,
    seed: int = 42,
    cache_size: int = 500,
    deltas: Sequence[int] = (0, 1, 2, 3, 4, 5),
    noise: float = 0.30,
) -> FigureData:
    """Demand-driven LIX/PIX vs the PT prefetcher (D5, Noise=30%).

    Expected shape: prefetching dominates demand fetching — the cache is
    upgraded for free as pages go by, so response time drops further.
    """
    from repro.client.prefetch import PrefetchEngine

    data = FigureData(
        figure="Extension: Prefetching",
        title=f"Demand vs PT prefetch — D5, CacheSize={cache_size}, "
        f"Noise={noise:.0%}",
        x_label="delta",
        x_values=list(deltas),
    )
    demand = ("LIX", "PIX")
    rows = _sweep_rows([
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size,
                       label=f"prefetch-cmp {policy} Δ={delta}")
         for delta in deltas]
        for policy in demand
    ])
    for policy, row in zip(demand, rows):
        data.add_series(f"demand {policy}", _means(row))

    builds = BuildCache()
    responses = []
    for delta in deltas:
        config = _design_point("D5", num_requests, seed, delta=delta,
                               cache_size=cache_size, noise=noise,
                               offset=cache_size)
        layout, schedule = builds.layout_and_schedule(config)
        probabilities = config.build_distribution().probabilities()

        def probability(page: int, _probs=probabilities) -> float:
            return float(_probs[page]) if 0 <= page < len(_probs) else 0.0

        engine = PrefetchEngine(
            schedule=schedule,
            mapping=builds.mapping(config, layout),
            layout=layout,
            probability=probability,
            cache_capacity=cache_size,
            think_time=config.think_time,
        )
        # Same steady-state protocol as the demand policies: warm up for
        # as long as we measure.
        outcome = engine.run_trace(
            builds.trace(config, 2 * num_requests),
            warmup_requests=num_requests,
        )
        responses.append(outcome.response.mean)
    data.add_series("PT prefetch", responses)
    return data


def policy_zoo(
    *, num_requests: int = 5_000,
    seed: int = 42,
    cache_size: int = 500,
    delta: int = 3,
    noise: float = 0.30,
    policies: Sequence[str] = ("LRU", "LRU-K", "2Q", "L", "LIX", "PIX", "P"),
) -> FigureData:
    """All implemented policies head-to-head at the Figure 13 design point.

    Measures §5.5's conjecture that LRU-K/2Q-style recency improvements
    do not close the gap to LIX without the frequency term.
    """
    data = FigureData(
        figure="Extension: Policy zoo",
        title=f"All policies — D5, CacheSize={cache_size}, Δ={delta}, "
        f"Noise={noise:.0%}",
        x_label="policy",
        x_values=list(policies),
    )
    results = sweep_results([
        _design_point("D5", num_requests, seed, delta=delta,
                      cache_size=cache_size, policy=policy, noise=noise,
                      offset=cache_size, label=f"zoo {policy}")
        for policy in policies
    ])
    data.add_series("response time", _means(results))
    data.add_series("hit rate", [result.hit_rate for result in results])
    return data


def indexing_tradeoff(
    *, num_data_buckets: int = 1000,
    fanout: int = 8,
    ms: Sequence[int] = (1, 2, 3, 4, 6, 8, 12),
    probes: int = 2_000,
    seed: int = 42,
) -> FigureData:
    """Access-time / tuning-time tradeoff of (1, m) indexing on air.

    The paper broadcasts self-identifying pages, making tuning time equal
    access time; §6/§7 point at [Imie94b]-style indexing as the fix.
    This study sweeps the index replication factor m and reports both
    metrics (simulated), with the no-index carousel as baseline and the
    analytic model alongside.
    """
    from repro.index.analysis import (
        no_index_expectations,
        one_m_expectations,
        optimal_m,
    )
    from repro.index.client import TuningClient
    from repro.index.onem import build_one_m_broadcast

    from repro.sim.rng import RandomStreams

    keys = list(range(num_data_buckets))
    rng = RandomStreams(seed).stream("figures.indexing_tradeoff")
    access_sim, tuning_sim, access_analytic = [], [], []
    for m in ms:
        broadcast = build_one_m_broadcast(keys, m=m, fanout=fanout)
        client = TuningClient(broadcast)
        starts = rng.integers(0, broadcast.cycle_length, size=probes)
        targets = rng.choice(keys, size=probes)
        stats = client.measure(targets, starts)
        expectations = one_m_expectations(num_data_buckets, m, fanout)
        access_sim.append(stats.mean_access_time)
        tuning_sim.append(stats.mean_tuning_time)
        access_analytic.append(expectations["access"])
    flat = no_index_expectations(num_data_buckets)
    data = FigureData(
        figure="Extension: Indexing on air",
        title=f"(1, m) indexing — {num_data_buckets} data buckets, "
        f"fanout {fanout}",
        x_label="m",
        x_values=list(ms),
        notes=(
            f"no-index baseline: access = tuning = {flat['access']:.0f}; "
            f"analytic optimum m* = {optimal_m(num_data_buckets, fanout)}"
        ),
    )
    data.add_series("access (sim)", access_sim)
    data.add_series("access (analytic)", access_analytic)
    data.add_series("tuning (sim)", tuning_sim)
    return data


def volatility_study(
    *, num_requests: int = 5_000,
    seed: int = 42,
    update_intervals: Sequence[float] = (
        10_000_000, 3_000_000, 1_000_000, 300_000, 100_000,
    ),
    report_interval: float = 1_000.0,
    cache_size: int = 500,
    delta: int = 3,
) -> FigureData:
    """Stale reads vs update rate, with and without invalidation reports.

    The §7 what-if: broadcast data now changes over time (periodic
    per-page updates with random phase; intervals are sized against the
    experiment's ~3M-broadcast-unit span, so the sweep covers "pages
    update ~0.3x to ~30x per run").  Without invalidation, cached copies
    silently go stale as volatility rises; listening to a periodic
    invalidation report (one slot per ``report_interval``) bounds
    staleness to the report window at the cost of re-fetching
    invalidated pages.
    """
    from repro.updates.engine import VolatileEngine
    from repro.updates.process import PeriodicUpdateModel

    base = _design_point("D5", num_requests, seed, delta=delta,
                         cache_size=cache_size, policy="LIX",
                         offset=cache_size)
    builds = BuildCache()
    layout, schedule = builds.layout_and_schedule(base)
    mapping = builds.mapping(base, layout)
    trace = builds.trace(base, 2 * num_requests)
    distribution = base.build_distribution()

    stale_without, stale_with = [], []
    response_without, response_with = [], []
    for interval in update_intervals:
        for with_reports in (False, True):
            engine = VolatileEngine(
                schedule=schedule,
                mapping=mapping,
                layout=layout,
                cache=base.build_policy(schedule, mapping, distribution,
                                        layout),
                updates=PeriodicUpdateModel.uniform(
                    interval,
                    layout.total_pages,
                    rng=base.build_streams().stream("updates"),
                ),
                think_time=base.think_time,
                report_interval=report_interval if with_reports else None,
            )
            outcome = engine.run_trace(trace, warmup_requests=num_requests)
            if with_reports:
                stale_with.append(outcome.stale_fraction)
                response_with.append(outcome.mean_response_time)
            else:
                stale_without.append(outcome.stale_fraction)
                response_without.append(outcome.mean_response_time)

    data = FigureData(
        figure="Extension: Volatile data",
        title=(
            f"Staleness vs update interval — D5 Δ={delta}, LIX cache "
            f"{cache_size}, reports every {report_interval:.0f} bu"
        ),
        x_label="update interval (bu)",
        x_values=[f"{interval:.0f}" for interval in update_intervals],
    )
    data.add_series("stale frac (no reports)", stale_without)
    data.add_series("stale frac (reports)", stale_with)
    data.add_series("response (no reports)", response_without)
    data.add_series("response (reports)", response_with)
    return data


def indexed_multidisk_study(
    *, seed: int = 42,
    probes: int = 3_000,
) -> FigureData:
    """Indexing the multilevel disk (§7) vs indexing a flat carousel.

    Same database (500 pages), same client workload (Zipf over the
    hottest 100), same dispatch tree; the multidisk variant repeats hot
    pages per the ⟨50,200,250⟩ Δ=4 program and replicates the index to
    match the flat variant's segment spacing.  Expected: identical
    tuning (the tree depth), substantially lower access for the skewed
    workload — the broadcast-disk effect survives the index detour.
    """
    from repro.core.programs import _flat_program, _multidisk_program
    from repro.index.client import TuningClient
    from repro.index.integrate import index_schedule
    from repro.sim.rng import RandomStreams
    from repro.workload.zipf import ZipfRegionDistribution

    layout = DiskLayout.from_delta((50, 200, 250), delta=4)
    variants = {
        "flat + (1,3) index": index_schedule(_flat_program(500), m=3, fanout=8),
        "multidisk + (1,8) index": index_schedule(
            _multidisk_program(layout), m=8, fanout=8
        ),
    }
    distribution = ZipfRegionDistribution(100, 10, 0.95)
    rng = RandomStreams(seed).stream("figures.indexed_multidisk_study")
    targets = distribution.sample(rng, probes)

    names = list(variants)
    access, tuning, cycle = [], [], []
    for name in names:
        broadcast = variants[name]
        starts = rng.integers(0, broadcast.cycle_length, size=probes)
        stats = TuningClient(broadcast).measure(targets, starts)
        access.append(stats.mean_access_time)
        tuning.append(stats.mean_tuning_time)
        cycle.append(float(broadcast.cycle_length))

    data = FigureData(
        figure="Extension: Indexed multidisk",
        title="Index + multilevel disk integration — 500 pages, "
        "Zipf access over the hottest 100",
        x_label="organisation",
        x_values=names,
    )
    data.add_series("access (bu)", access)
    data.add_series("tuning (bu)", tuning)
    data.add_series("cycle length", cycle)
    return data


def drift_study(
    *, num_requests: int = 10_000,
    seed: int = 42,
    rotations_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    policies: Sequence[str] = ("PIX", "P", "LIX", "LRU"),
    cache_size: int = 500,
    delta: int = 3,
    noise: float = 0.30,
) -> FigureData:
    """Stale oracles vs adaptive estimates under workload drift (§3).

    The client's hotspot rotates through the access range ``rotations``
    times over the run, but the broadcast and the idealised policies'
    probability oracle stay frozen at the t=0 snapshot (30% noise keeps
    P and PIX distinguishable).  Expected: everyone loses to drift; the
    frozen *probability* signal decays with drift while the frequency
    (cost) signal never does — so P falls furthest, PIX's cost half
    keeps it afloat, and LIX's online estimator tracks PIX far more
    closely than it does at zero drift.

    Each point warms up for ``2 * num_requests`` requests, so the drawn
    trace spans the ``3 * num_requests`` requests the hotspot rotates
    over (``ExperimentConfig.drift_rotations``).
    """
    data = FigureData(
        figure="Extension: Workload drift",
        title=(
            f"Hotspot drift — D5 Δ={delta}, cache {cache_size}, "
            f"noise {noise:.0%}, frozen t=0 oracle for P/PIX"
        ),
        x_label="rotations per run",
        x_values=list(rotations_values),
    )
    rows = _sweep_rows([
        [_design_point("D5", num_requests, seed, delta=delta,
                       cache_size=cache_size, policy=policy, noise=noise,
                       offset=cache_size, drift_rotations=rotations,
                       warmup_requests=2 * num_requests)
         for rotations in rotations_values]
        for policy in policies
    ])
    for policy, row in zip(policies, rows):
        data.add_series(policy, _means(row))
    return data


def query_study(
    *, seed: int = 42,
    query_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    trials: int = 800,
    num_pages: int = 500,
) -> FigureData:
    """Broadcast-aware query processing (§7's last future-work item).

    A query needs k pages; the pull-style executor fetches them one at a
    time while the broadcast-native one harvests them in arrival order.
    Expected: opportunistic makespan stays under one cycle and the
    speedup over sequential grows as (k+1)/2 on the flat disk, matching
    the closed form.
    """
    from repro.core.programs import _flat_program
    from repro.query.analysis import opportunistic_expected_makespan_flat
    from repro.sim.rng import RandomStreams
    from repro.query.engine import fetch_opportunistic, fetch_sequential
    from repro.workload.mapping import LogicalPhysicalMapping

    layout = DiskLayout.flat(num_pages)
    schedule = _flat_program(num_pages)
    mapping = LogicalPhysicalMapping(layout)
    rng = RandomStreams(seed).stream("figures.query_study")

    sequential, opportunistic, analytic = [], [], []
    for k in query_sizes:
        seq_total = 0.0
        opp_total = 0.0
        for _trial in range(trials):
            pages = rng.choice(num_pages, size=k, replace=False)
            start = float(rng.uniform(0, num_pages))
            seq_total += fetch_sequential(
                schedule, mapping, pages, start
            ).makespan
            opp_total += fetch_opportunistic(
                schedule, mapping, pages, start
            ).makespan
        sequential.append(seq_total / trials)
        opportunistic.append(opp_total / trials)
        analytic.append(opportunistic_expected_makespan_flat(num_pages, k))

    data = FigureData(
        figure="Extension: Query processing",
        title=f"k-page retrieval on a flat {num_pages}-page broadcast",
        x_label="query size k",
        x_values=list(query_sizes),
    )
    data.add_series("sequential", sequential)
    data.add_series("opportunistic", opportunistic)
    data.add_series("opportunistic (analytic)", analytic)
    return data


def multichannel_study(
    *, num_requests: int = PAPER_REQUESTS,
    seed: int = 42,
    deltas: Sequence[int] = DELTA_RANGE,
    channel_counts: Sequence[int] = (1, 2, 4),
    preset: str = "D5",
    retune_cost: float = 1.0,
    jobs: int = 1,
    engine: str = "fast",
    profile=None,
) -> FigureData:
    """Response time and retune rate vs Δ for C parallel channels.

    The Figure-5 protocol (CacheSize=1, Noise=0%, Offset=0) run with the
    server's bandwidth split across C broadcast channels and a
    single-frequency client tuner paying ``retune_cost`` per switch.
    Expected shape: splitting shortens each channel's cycle, so C=2 and
    C=4 sit strictly below the C=1 curve at every Δ; the retune rate
    (retunes per measured request) rises with C and caps at the miss
    rate — a tuner only switches to chase a cache miss.
    """
    data = FigureData(
        figure="Extension: Multi-channel broadcast",
        title=(
            f"Multi-channel performance — Disk {preset}"
            f"<{','.join(str(s) for s in DISK_PRESETS[preset])}>, "
            f"CacheSize=1, retune cost {retune_cost:g}"
        ),
        x_label="delta",
        x_values=list(deltas),
        notes=(
            "Per-channel slot rate is 1/C of the single-channel rate; "
            "retune rate = measured retunes / measured requests."
        ),
    )
    rows = _sweep_rows([
        [_design_point(preset, num_requests, seed, delta=delta,
                       channels=channels, retune_cost=retune_cost,
                       label=f"MC {preset} Δ={delta} C={channels}")
         for delta in deltas]
        for channels in channel_counts
    ], jobs=jobs, engine=engine, profile=profile)
    for channels, row in zip(channel_counts, rows):
        data.add_series(f"C={channels}", _means(row))
        data.add_series(
            f"C={channels} retunes/req",
            [r.retunes / r.measured_requests for r in row],
        )
        data.add_series(
            f"C={channels} miss rate", [1.0 - r.hit_rate for r in row]
        )
    return data
