"""repro.population: specs, aggregates, and fleet runs.

The contract under test (``docs/POPULATION.md``): a PopulationSpec
expands deterministically into per-client plans; the aggregates merge
exactly (any sharding gives the same rollup); ``run_population`` is
byte-identical across ``jobs`` settings and resumes from a checkpoint
journal without changing the answer.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.exec import SerialExecutor, SweepCheckpoint
from repro.exec.plan import derive_seed
from repro.experiments.config import ExperimentConfig
from repro.obs.manifest import strip_wall_clock
from repro.obs.metrics import MetricsRegistry
from repro.population import (
    Choice,
    Constant,
    FairnessAccumulator,
    PopulationAggregate,
    PopulationSpec,
    QuantileSketch,
    SegmentSpec,
    Uniform,
    UniformInt,
    client_config,
    expand,
    run_population,
    scale_spec,
    spec_from_dict,
    spec_to_dict,
)
from repro.sim.rng import RandomStreams


def small_base(**overrides):
    defaults = dict(
        disk_sizes=(50, 200, 250),
        cache_size=50,
        policy="LIX",
        access_range=100,
        region_size=10,
        num_requests=300,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def small_spec(**overrides):
    defaults = dict(
        name="test-fleet",
        base=small_base(),
        seed=11,
        segments=(
            SegmentSpec("varied", 6,
                        cache_size=UniformInt(10, 80),
                        policy=Choice(("LRU", "LIX"))),
            SegmentSpec("drifty", 4,
                        drift_rotations=Uniform(0.0, 2.0),
                        noise=Uniform(0.0, 0.3)),
        ),
    )
    defaults.update(overrides)
    return PopulationSpec(**defaults)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class TestDistributions:
    def test_constant_returns_value(self):
        rng = RandomStreams(1).stream("population")
        assert Constant(42).sample(rng) == 42
        assert Constant("LIX").sample(rng) == "LIX"

    def test_uniform_int_inclusive_bounds(self):
        rng = RandomStreams(2).stream("population")
        values = {UniformInt(3, 5).sample(rng) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_uniform_within_range(self):
        rng = RandomStreams(3).stream("population")
        for _ in range(100):
            value = Uniform(0.25, 0.75).sample(rng)
            assert 0.25 <= value < 0.75

    def test_choice_uniform_hits_all_values(self):
        rng = RandomStreams(4).stream("population")
        seen = {Choice(("a", "b", "c")).sample(rng) for _ in range(200)}
        assert seen == {"a", "b", "c"}

    def test_choice_weighted_respects_zero_weight(self):
        rng = RandomStreams(5).stream("population")
        choice = Choice(("hot", "cold"), weights=(1.0, 0.0))
        assert {choice.sample(rng) for _ in range(100)} == {"hot"}

    def test_choice_validation(self):
        with pytest.raises(ConfigurationError):
            Choice(())
        with pytest.raises(ConfigurationError):
            Choice(("a", "b"), weights=(1.0,))
        with pytest.raises(ConfigurationError):
            Choice(("a",), weights=(0.0,))

    def test_bound_validation(self):
        with pytest.raises(ConfigurationError):
            UniformInt(5, 3)
        with pytest.raises(ConfigurationError):
            Uniform(1.0, 0.5)


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------

class TestExpansion:
    def test_expansion_is_deterministic(self):
        spec = small_spec()
        assert expand(spec) == expand(spec)

    def test_one_plan_per_client_in_declaration_order(self):
        spec = small_spec()
        plans = expand(spec)
        assert len(plans) == spec.num_clients == 10
        assert [plan.index for plan in plans] == list(range(10))
        assert plans[0].config.label.startswith("test-fleet/varied/")
        assert plans[9].config.label.startswith("test-fleet/drifty/")

    def test_per_client_seed_uses_stride_derivation(self):
        spec = small_spec()
        for plan in expand(spec):
            assert plan.config.seed == derive_seed(spec.seed, plan.index)

    def test_client_identity_is_independent_of_fleet_shape(self):
        # The same (spec.seed, index, segment) always yields the same
        # client, no matter how many clients the segment holds.
        spec_small = small_spec()
        segment = spec_small.segments[0]
        grown = small_spec(segments=(
            SegmentSpec("varied", 20,
                        cache_size=UniformInt(10, 80),
                        policy=Choice(("LRU", "LIX"))),
        ))
        for index in range(3):
            assert (client_config(spec_small, segment, index)
                    == client_config(grown, grown.segments[0], index))

    def test_undistributed_fields_inherit_base(self):
        spec = small_spec()
        plan = expand(spec)[0]  # "varied" distributes cache_size+policy
        assert plan.config.noise == spec.base.noise
        assert plan.config.think_time == spec.base.think_time

    def test_sampled_fields_respect_distributions(self):
        spec = small_spec()
        for plan in expand(spec)[:6]:
            assert 10 <= plan.config.cache_size <= 80
            assert plan.config.policy in ("LRU", "LIX")
        for plan in expand(spec)[6:]:
            assert 0.0 <= plan.config.drift_rotations <= 2.0
            assert 0.0 <= plan.config.noise <= 0.3

    def test_literal_values_are_wrapped_as_constants(self):
        segment = SegmentSpec("fixed", 2, cache_size=32, policy="LRU")
        assert segment.cache_size == Constant(32)
        assert segment.policy == Constant("LRU")

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            SegmentSpec("", 3)
        with pytest.raises(ConfigurationError):
            SegmentSpec("empty", 0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(name="x", segments=())
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                name="x",
                segments=(SegmentSpec("a", 1), SegmentSpec("a", 1)),
            )
        for engine in ("bogus", "hybrid"):
            with pytest.raises(
                ConfigurationError,
                match="valid engines: batch, fast, fast-reference, process$",
            ):
                small_spec(engine=engine)


class TestScaleSpec:
    def test_scales_proportionally_to_exact_total(self):
        spec = small_spec()  # 6 + 4 clients
        scaled = scale_spec(spec, 50)
        assert scaled.num_clients == 50
        assert [segment.clients for segment in scaled.segments] == [30, 20]

    def test_rounds_with_minimum_one_client(self):
        spec = small_spec()
        scaled = scale_spec(spec, 3)
        assert scaled.num_clients == 3
        assert all(segment.clients >= 1 for segment in scaled.segments)

    def test_rejects_fewer_clients_than_segments(self):
        with pytest.raises(ConfigurationError):
            scale_spec(small_spec(), 1)


class TestSpecRoundTrip:
    def test_json_round_trip_is_exact(self):
        spec = small_spec()
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec

    def test_round_trip_preserves_weighted_choice(self):
        spec = small_spec(segments=(
            SegmentSpec("weighted", 3,
                        policy=Choice(("LRU", "LIX"), weights=(0.7, 0.3))),
        ))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_rejects_unknown_schema_and_fields(self):
        payload = spec_to_dict(small_spec())
        bad_schema = dict(payload, schema="repro.population.spec/999")
        with pytest.raises(ConfigurationError):
            spec_from_dict(bad_schema)
        bad_base = dict(payload, base=dict(payload["base"], bogus=1))
        with pytest.raises(ConfigurationError, match="bogus"):
            spec_from_dict(bad_base)

    def test_rejects_unknown_distribution_kind(self):
        payload = spec_to_dict(small_spec())
        payload["segments"][0]["cache_size"] = {"kind": "zipfian"}
        with pytest.raises(ConfigurationError, match="zipfian"):
            spec_from_dict(payload)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch()
        values = [float(i) for i in range(1, 1001)]
        for value in values:
            sketch.add(value)
        for fraction in (0.5, 0.9, 0.99):
            exact = values[math.ceil(fraction * len(values)) - 1]
            approx = sketch.quantile(fraction)
            assert abs(approx - exact) / exact <= sketch.gamma - 1.0 + 1e-9

    def test_merge_equals_sequential_feed(self):
        left, right, whole = (QuantileSketch() for _ in range(3))
        for i in range(1, 500):
            value = (i * 37) % 997 + 0.5
            (left if i % 2 else right).add(value)
            whole.add(value)
        merged = left.merge(right)
        assert merged.count == whole.count
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(fraction) == whole.quantile(fraction)

    def test_merge_is_commutative(self):
        left, right = QuantileSketch(), QuantileSketch()
        for i in range(100):
            left.add(i + 1.0)
            right.add((i + 1.0) * 3)
        assert (left.merge(right).quantile(0.9)
                == right.merge(left).quantile(0.9))

    def test_zero_values_and_empty(self):
        sketch = QuantileSketch()
        assert sketch.quantile(0.5) == 0.0
        sketch.add(0.0)
        sketch.add(0.0)
        sketch.add(10.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(10.0, rel=0.03)

    def test_gamma_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(1.02).merge(QuantileSketch(1.05))
        with pytest.raises(ConfigurationError):
            QuantileSketch(0.5)


class TestFairness:
    def test_even_fleet_is_one(self):
        acc = FairnessAccumulator()
        for _ in range(10):
            acc.add(5.0)
        assert acc.jain == pytest.approx(1.0)

    def test_single_hog_tends_to_one_over_n(self):
        acc = FairnessAccumulator()
        acc.add(100.0)
        for _ in range(9):
            acc.add(0.0)
        assert acc.jain == pytest.approx(0.1)

    def test_merge_exact(self):
        left, right, whole = (FairnessAccumulator() for _ in range(3))
        for i in range(50):
            value = float((i * 13) % 7 + 1)
            (left if i % 3 else right).add(value)
            whole.add(value)
        merged = left.merge(right)
        assert merged.count == whole.count
        # Sums are reassociated by the merge; equality holds to the ulp.
        assert merged.jain == pytest.approx(whole.jain, rel=1e-12)


class TestPopulationAggregateMerge:
    def test_merge_matches_sequential_fold(self):
        spec = small_spec()
        results = SerialExecutor().run(expand(spec))
        whole = PopulationAggregate()
        left, right = PopulationAggregate(), PopulationAggregate()
        for index, result in enumerate(results):
            whole.add_result(result)
            (left if index < 5 else right).add_result(result)
        merged = left.merge(right)
        assert merged.clients == whole.clients
        assert merged.measured_requests == whole.measured_requests
        # Integer bucket counts make sketch quantiles exactly mergeable;
        # the float moments reassociate and agree to the ulp.
        assert (merged.percentiles.quantile(0.9)
                == whole.percentiles.quantile(0.9))
        assert merged.response_means.mean == pytest.approx(
            whole.response_means.mean, rel=1e-12
        )
        assert merged.response_means.stddev == pytest.approx(
            whole.response_means.stddev, rel=1e-9
        )
        assert merged.hit_rate == pytest.approx(whole.hit_rate, rel=1e-12)
        assert merged.fairness.jain == pytest.approx(
            whole.fairness.jain, rel=1e-12
        )


# ---------------------------------------------------------------------------
# run_population
# ---------------------------------------------------------------------------

def fleet_snapshot(result):
    blocks = {"overall": result.overall.snapshot()}
    blocks.update({name: aggregate.snapshot()
                   for name, aggregate in result.segments.items()})
    return strip_wall_clock(blocks)


class TestRunPopulation:
    def test_segment_breakdown_covers_fleet(self):
        result = run_population(small_spec(), keep_results=True)
        assert result.num_clients == 10
        assert [aggregate.clients
                for aggregate in result.segments.values()] == [6, 4]
        assert set(result.segments) == {"varied", "drifty"}
        assert len(result.results) == 10

    def test_results_dropped_by_default(self):
        assert run_population(small_spec()).results is None

    def test_segments_fold_their_own_clients(self):
        spec = small_spec()
        result = run_population(spec, keep_results=True)
        varied_means = [r.mean_response_time for r in result.results[:6]]
        varied = result.segments["varied"]
        assert varied.response_means.mean == pytest.approx(
            sum(varied_means) / len(varied_means)
        )
        assert varied.response_means.count == 6

    def test_parallel_is_byte_identical(self, tmp_path):
        spec = small_spec()
        serial_metrics, parallel_metrics = (
            MetricsRegistry(), MetricsRegistry()
        )
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = run_population(
            spec, jobs=1, metrics=serial_metrics,
            manifest=str(serial_path),
        )
        parallel = run_population(
            spec, jobs=2, metrics=parallel_metrics,
            manifest=str(parallel_path),
        )
        assert fleet_snapshot(serial) == fleet_snapshot(parallel)
        assert serial_metrics.snapshot() == parallel_metrics.snapshot()
        assert (strip_wall_clock(json.loads(serial_path.read_text()))
                == strip_wall_clock(json.loads(parallel_path.read_text())))

    def test_checkpoint_resume_reproduces_fleet(self, tmp_path):
        spec = small_spec()
        reference = run_population(spec)
        journal = tmp_path / "fleet.jsonl"
        half = expand(spec)[:5]
        SerialExecutor().run(half, checkpoint=SweepCheckpoint(str(journal)))
        resume = SweepCheckpoint(str(journal))
        assert resume.resumed == 5
        resumed = run_population(spec, jobs=2, checkpoint=resume)
        assert fleet_snapshot(resumed) == fleet_snapshot(reference)
        # Every client is journalled now; a fresh resume replays all.
        replay = SweepCheckpoint(str(journal))
        assert replay.resumed == 10

    def test_progress_fires_in_plan_order(self):
        seen = []
        run_population(
            small_spec(),
            progress=lambda done, total, _r: seen.append((done, total)),
        )
        assert seen == [(i + 1, 10) for i in range(10)]

    def test_manifest_schema_and_content(self, tmp_path):
        path = tmp_path / "population.json"
        spec = small_spec()
        result = run_population(spec, manifest=str(path))
        document = json.loads(path.read_text())
        assert document == result.manifest
        assert document["schema"] == "repro.population/1"
        assert document["num_clients"] == 10
        assert document["spec"] == spec_to_dict(spec)
        assert set(document["segments"]) == {"varied", "drifty"}
        assert document["summary"]["clients"] == 10
        assert 0.0 < document["summary"]["fairness"] <= 1.0

    def test_metrics_rollup(self):
        metrics = MetricsRegistry()
        result = run_population(small_spec(), metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["population.clients"] == 10
        assert snapshot["population.runs"] == 1
        assert (snapshot["population.response.mean"]
                == result.overall.response_means.mean)
        assert snapshot["population.fairness"] == result.overall.fairness.jain

    def test_homogeneous_fleet_mean_matches_singles(self):
        # A homogeneous fleet is the single-client harness run n times
        # with derived seeds; the rollup must equal the hand fold.
        from repro.experiments.runner import run_experiment

        base = small_base(cache_size=1)
        spec = PopulationSpec(
            name="homogeneous", base=base, seed=5,
            segments=(SegmentSpec("all", 4),),
        )
        fleet = run_population(spec)
        singles = [
            run_experiment(base.with_(
                seed=derive_seed(5, index),
                label=f"homogeneous/all/client{index}",
            )).mean_response_time
            for index in range(4)
        ]
        assert fleet.overall.response_means.mean == pytest.approx(
            sum(singles) / len(singles)
        )
