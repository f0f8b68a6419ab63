"""The trace report (repro.obs.analyze).

Synthetic record streams pin each section's arithmetic exactly; a real
traced run then checks the sections compose into one document whose
numbers are internally consistent (occupancy bounded by the cache
capacity, shares summing to one).
"""

from __future__ import annotations

import pytest

import json

from repro.cache.base import PolicyContext
from repro.cache.registry import make_policy
from repro.core.programs import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment, sweep_results
from repro.experiments.simengine import ClientSpec, ProcessEngine, run_clients
from repro.obs.analyze import (
    ANALYZE_SCHEMA,
    analyze,
    cache_residency,
    delivery_runs,
    render_analysis,
)
from repro.obs.cli import EXIT_OK, main
from repro.obs.trace import JsonlSink, MemorySink, Tracer, read_jsonl
from repro.population import (
    PopulationSpec,
    SegmentSpec,
    Uniform,
    run_population,
)
from repro.sim.rng import RandomStreams
from repro.workload.mapping import LogicalPhysicalMapping
from repro.workload.trace import generate_trace
from repro.workload.zipf import ZipfRegionDistribution


def wait(t, physical, amount, client=None):
    record = {"kind": "client.wait", "t": t, "physical": physical,
              "wait": amount}
    if client is not None:
        record["client"] = client
    return record


class TestResponseByDisk:
    def test_cumulative_boundaries_attribute_pages(self):
        records = [
            wait(1.0, 0, 1.0),   # disk1: pages 0..1
            wait(2.0, 1, 3.0),
            wait(3.0, 2, 10.0),  # disk2: pages 2..5
            wait(4.0, 6, 20.0),  # disk3: pages 6..13
            wait(5.0, 99, 5.0),  # beyond the declared layout
        ]
        section = analyze(records, disk_sizes=(2, 4, 8))["responses"]
        assert section["waits"]["count"] == 5
        disks = section["by_disk"]
        assert set(disks) == {"disk1", "disk2", "disk3", "beyond"}
        assert disks["disk1"]["count"] == 2
        assert disks["disk1"]["mean"] == pytest.approx(2.0)
        assert disks["disk2"]["mean"] == pytest.approx(10.0)
        assert disks["disk3"]["max"] == pytest.approx(20.0)
        assert sum(b["share"] for b in disks.values()) == pytest.approx(1.0)

    def test_without_sizes_everything_lands_in_one_bucket(self):
        # The one bucket is the section's own wait statistics.
        section = analyze([wait(1.0, 3, 2.0), wait(2.0, 9, 4.0)])["responses"]
        assert "by_disk" not in section
        assert section["waits"]["count"] == 2
        assert section["waits"]["mean"] == pytest.approx(3.0)

    def test_no_waits_no_section(self):
        assert "responses" not in analyze([{"kind": "sim.event", "t": 1.0}])


class TestSlotUtilization:
    def test_full_span_is_fully_utilized(self):
        records = [
            {"kind": "channel.deliver", "t": float(t), "page": t % 3}
            for t in range(1, 7)
        ]
        section = analyze(records)["broadcast"]
        assert section["delivered_slots"] == 6
        assert section["observed_span"] == pytest.approx(6.0)
        assert section["utilization"] == pytest.approx(1.0)
        assert section["pages_observed"] == 3

    def test_sparse_observation_lowers_utilization(self):
        records = [
            {"kind": "channel.deliver", "t": 1.0, "page": 0},
            {"kind": "channel.deliver", "t": 10.0, "page": 0},
        ]
        section = analyze(records)["broadcast"]
        assert section["utilization"] == pytest.approx(0.2)

    def test_top_pages_ranked_by_deliveries_then_id(self):
        records = (
            [{"kind": "channel.deliver", "t": float(t), "page": 7}
             for t in range(1, 4)]
            + [{"kind": "channel.deliver", "t": float(t), "page": 2}
               for t in range(4, 7)]
            + [{"kind": "channel.deliver", "t": 7.0, "page": 5}]
        )
        section = analyze(records, top=2)["broadcast"]
        assert [row["page"] for row in section["top_pages"]] == [2, 7]
        assert section["top_pages"][0]["bandwidth_share"] == pytest.approx(
            3 / 7
        )

    def test_channels_and_clock_restarts_split_runs(self):
        # Two channels deliver in parallel; then channel 0 restarts its
        # clock.  Each run's span counts once: 2 + 2 + 1 slots.
        records = [
            {"kind": "channel.deliver", "t": t, "page": page,
             "channel": channel}
            for t, page, channel in ((1.0, 0, 0), (1.0, 5, 1), (2.0, 1, 0),
                                     (2.0, 6, 1), (1.0, 0, 0))
        ]
        runs = delivery_runs(records)
        assert [[r["page"] for r in run] for run in runs] == [
            [0, 1], [5, 6], [0]
        ]
        section = analyze(records)["broadcast"]
        assert section["runs"] == 3
        assert section["observed_span"] == 5.0
        assert section["utilization"] == 1.0


class TestResidencyTimeline:
    def test_victim_leaves_at_admission(self):
        # capacity-1 cache: each admission names the page it displaces.
        # The paired cache.evict record follows at the same instant; the
        # occupancy peak must never read capacity + 1.
        records = [
            {"kind": "cache.admit", "t": 0.0, "page": 1, "victim": None},
            {"kind": "cache.admit", "t": 5.0, "page": 2, "victim": 1},
            {"kind": "cache.evict", "t": 5.0, "page": 1},
            {"kind": "cache.admit", "t": 8.0, "page": 3, "victim": 2},
            {"kind": "cache.evict", "t": 8.0, "page": 2},
        ]
        section = analyze(records)["cache"]
        assert section["occupancy_max"] == pytest.approx(1.0)
        assert section["events"] == 5
        longest = {row["page"]: row["resident_time"]
                   for row in section["longest_resident"]}
        assert longest[1] == pytest.approx(5.0)
        assert longest[2] == pytest.approx(3.0)

    def test_rejected_admission_never_counts(self):
        records = [
            {"kind": "cache.admit", "t": 0.0, "page": 1, "victim": None},
            {"kind": "cache.admit", "t": 1.0, "page": 2, "victim": 2},
        ]
        section = analyze(records)["cache"]
        assert section["occupancy_max"] == pytest.approx(1.0)
        assert (section["admissions"], section["rejections"]) == (2, 1)

    def test_no_cache_records_no_section(self):
        assert "cache" not in analyze([{"kind": "sim.event", "t": 0.0}])

    def test_clock_restart_starts_a_new_run(self):
        # Two runs in one stream: the second restarts the clock, so
        # page 1 leaves at the first run's last record (t=4) and the
        # gap between the runs counts toward neither.
        records = [
            {"kind": "cache.admit", "t": 2.0, "page": 1, "victim": None},
            {"kind": "cache.admit", "t": 4.0, "page": 2, "victim": None},
            {"kind": "cache.admit", "t": 1.0, "page": 1, "victim": None},
            {"kind": "cache.discard", "t": 3.0, "page": 1},
        ]
        walk = cache_residency(records)
        assert residencies(records) == {("", 1): 4.0, ("", 2): 0.0}
        # Occupancy 1 over [2, 4) and over [1, 3): area 4 over span 4.
        assert walk["occupancy_mean"] == 1.0
        assert walk["occupancy_max"] == 2.0
        assert (walk["admissions"], walk["discards"]) == (3, 1)

    def test_clients_keep_separate_caches(self):
        # Interleaved clients with unsynchronised clocks: neither
        # client's records restart the other's run, and the same page
        # in two caches is two residencies.
        records = [
            {"kind": "cache.admit", "t": 5.0, "page": 7, "victim": None,
             "client": "a"},
            {"kind": "cache.admit", "t": 1.0, "page": 7, "victim": None,
             "client": "b"},
            {"kind": "cache.discard", "t": 9.0, "page": 7, "client": "a"},
            {"kind": "cache.discard", "t": 2.0, "page": 7, "client": "b"},
        ]
        assert residencies(records) == {("a", 7): 4.0, ("b", 7): 1.0}
        assert cache_residency(records)["occupancy_max"] == 1.0
        rows = analyze(records)["cache"]["longest_resident"]
        assert rows == [
            {"page": 7, "resident_time": 4.0, "client": "a"},
            {"page": 7, "resident_time": 1.0, "client": "b"},
        ]


def residencies(records):
    """Every residency of the walk, keyed by ``(client, page)``."""
    rows = cache_residency(records, top=10**9)["longest_resident"]
    return {(row.get("client", ""), row["page"]): row["resident_time"]
            for row in rows}


def _broadcast_records(runs):
    """``runs`` process-engine runs of the ⟨2,4,8⟩@⟨4,2,1⟩ program,
    every broadcast slot observed, traced into one tracer."""
    layout, schedule = ProgramSpec(sizes=(2, 4, 8), rel_freqs=(4, 2, 1)).build()
    distribution = ZipfRegionDistribution(14, 2, 0.95)
    sink = MemorySink(capacity=None)
    with Tracer(sink) as tracer:
        for _run in range(runs):
            engine = ProcessEngine(schedule, layout, tracer=tracer)
            engine.channel.observe_every_slot()
            engine.add_client(ClientSpec(
                mapping=LogicalPhysicalMapping(layout),
                cache=make_policy("LRU", 4, PolicyContext(num_disks=3)),
                trace=generate_trace(
                    distribution, 400, RandomStreams(3).stream("requests")
                ),
            ))
            engine.run()
    return [record.to_dict() for record in sink.records]


def _small_config(**overrides):
    fields = dict(disk_sizes=(50, 200, 250), delta=3, cache_size=10,
                  policy="LIX", access_range=100, region_size=10,
                  num_requests=300, seed=7)
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestMultiRunTraces:
    """Traces holding several runs or clients: one walk, per-run clocks."""

    @pytest.fixture
    def sweep_trace(self, tmp_path):
        """A traced two-point sweep (Δ 1 and 3), plus each run alone."""
        path = str(tmp_path / "sweep.jsonl")
        configs = [_small_config(delta=delta) for delta in (1, 3)]
        with Tracer(JsonlSink(path)) as tracer:
            sweep_results(configs, tracer=tracer)
        alone = []
        for config in configs:
            sink = MemorySink(capacity=None)
            with Tracer(sink) as tracer:
                run_experiment(config, tracer=tracer)
            alone.append([record.to_dict() for record in sink.records])
        return path, alone

    @pytest.fixture
    def fleet_trace(self, tmp_path):
        """A traced 3-client fleet on the columnar batch engine."""
        path = str(tmp_path / "fleet.jsonl")
        spec = PopulationSpec(
            name="trio", base=_small_config(), seed=5, engine="batch",
            segments=(SegmentSpec("all", 3),),
        )
        with Tracer(JsonlSink(path)) as tracer:
            run_population(spec, tracer=tracer)
        return path

    def test_sweep_trace_analyzes(self, sweep_trace, capsys):
        path, alone = sweep_trace
        assert main(["summary", path, "--json"]) == EXIT_OK
        section = json.loads(capsys.readouterr().out)["cache"]
        assert 0.0 < section["occupancy_mean"] <= section["occupancy_max"]
        assert section["occupancy_max"] <= 10
        # The sweep's walk is the two runs' walks added up.
        records = list(read_jsonl(path))
        walk = cache_residency(records)
        walks = [cache_residency(run) for run in alone]
        assert walk["events"] == sum(w["events"] for w in walks)
        assert walk["occupancy_max"] == max(
            w["occupancy_max"] for w in walks
        )
        per_run = [residencies(run) for run in alone]
        combined = residencies(records)
        assert set(combined) == set(per_run[0]) | set(per_run[1])
        for key, resident_time in combined.items():
            assert resident_time == pytest.approx(
                sum(run.get(key, 0.0) for run in per_run)
            )

    def test_fleet_trace_analyzes(self, fleet_trace, capsys):
        assert main(["summary", fleet_trace, "--json"]) == EXIT_OK
        section = json.loads(capsys.readouterr().out)["cache"]
        assert section["occupancy_max"] <= 10
        assert all("client" in row for row in section["longest_resident"])
        # Each client's residency is what its own records alone give.
        records = list(read_jsonl(fleet_trace))
        combined = residencies(records)
        clients = {client for client, _page in combined}
        assert clients == {f"trio/all/client{i}" for i in range(3)}
        for client in clients:
            own = residencies(
                [r for r in records if r.get("client") == client]
            )
            assert own == {key: resident_time
                           for key, resident_time in combined.items()
                           if key[0] == client}

    def test_mixed_fleet_labels_every_client(self):
        # A columnar bucket, per-client plans for Uniform noise and an
        # LRU-K client: each client's row, and its residencies, are what
        # its own records alone give.
        spec = PopulationSpec(
            name="mixed", seed=3, engine="batch",
            base=_small_config(access_range=500, region_size=50,
                               num_requests=150),
            segments=(
                SegmentSpec("steady", 3),
                SegmentSpec("noisy", 3, noise=Uniform(0.0, 0.3)),
                SegmentSpec("lone", 1, policy="LRU-K"),
            ),
        )
        sink = MemorySink(capacity=None)
        with Tracer(sink) as tracer:
            run_population(spec, tracer=tracer)
        records = [record.to_dict() for record in sink.records]
        latency = analyze(records, top=10)["responses"]
        assert latency["clients"] == 7
        combined = residencies(records)
        for row in latency["slowest"]:
            own = [r for r in records if r.get("client") == row["client"]]
            assert analyze(own, top=10)["responses"]["slowest"] == [row]
            assert residencies(own) == {
                key: resident_time for key, resident_time in combined.items()
                if key[0] == row["client"]
            }

    def test_process_clients_keep_their_own_caches(self):
        # Three process-engine clients, each with an LRU cache of 4
        # pages, share one broadcast: their cache records carry the
        # client's name, so the walk keeps three caches, not one.
        layout, schedule = ProgramSpec(
            sizes=(2, 4, 8), rel_freqs=(4, 2, 1)
        ).build()
        distribution = ZipfRegionDistribution(14, 2, 0.95)
        specs = [
            ClientSpec(
                mapping=LogicalPhysicalMapping(layout),
                cache=make_policy("LRU", 4, PolicyContext(num_disks=3)),
                trace=generate_trace(
                    distribution, 150, RandomStreams(seed).stream("requests")
                ),
                name=f"client{seed}",
            )
            for seed in (1, 2, 3)
        ]
        sink = MemorySink(capacity=None)
        with Tracer(sink) as tracer:
            run_clients(schedule, layout, specs, tracer=tracer)
        records = [record.to_dict() for record in sink.records]
        cache = analyze(records)["cache"]
        assert cache["occupancy_max"] == 4
        assert cache["admissions"] == sum(
            record["kind"] == "client.miss" for record in records
        )
        assert {client for client, _page in residencies(records)} == {
            "client1", "client2", "client3",
        }

    def test_broadcast_runs_read_like_one_run(self):
        # The second run restarts the clock at zero: neither the slot
        # span nor the per-page gaps may bridge the restart.
        one, two = _broadcast_records(1), _broadcast_records(2)
        assert len(delivery_runs(two)) == 2
        used_one = analyze(one)["broadcast"]
        used_two = analyze(two)["broadcast"]
        assert used_two["delivered_slots"] == 2 * used_one["delivered_slots"]
        assert used_two["utilization"] == used_one["utilization"] == 1.0
        # Every slot observed: each run holds deliveries nobody waited
        # for, so both runs are checked.
        assert used_two["runs"] == used_two["runs_checked"] == 2
        assert used_one["fixed_interarrival"] is True
        assert used_two["fixed_interarrival"] is True
        assert used_two["max_gap_variance"] == used_one["max_gap_variance"]

    def test_summary_shares_the_walk(self, fleet_trace, sweep_trace):
        # The report's cache section is the residency walk, whole.
        for path in (fleet_trace, sweep_trace[0]):
            assert main(["summary", path]) == EXIT_OK
            records = list(read_jsonl(path))
            assert analyze(records)["cache"] == cache_residency(records)


class TestClientLatency:
    def test_equal_clients_score_perfect_fairness(self):
        records = []
        for client in ("a", "b"):
            records.append({"kind": "client.request", "t": 1.0,
                            "client": client})
            records.append({"kind": "client.miss", "t": 1.0, "page": 0,
                            "client": client})
            records.append(wait(2.0, 0, 4.0, client=client))
        section = analyze(records)["responses"]
        assert section["clients"] == 2
        assert section["fairness"] == pytest.approx(1.0)

    def test_slowest_client_ranks_first(self):
        records = [
            wait(1.0, 0, 10.0, client="slow"),
            wait(2.0, 0, 1.0, client="fast"),
        ]
        section = analyze(records)["responses"]
        assert section["slowest"][0]["client"] == "slow"
        assert section["fairness"] < 1.0

    def test_hit_rate_per_client(self):
        records = [
            {"kind": "client.request", "t": 1.0, "client": "a"},
            {"kind": "client.hit", "t": 1.0, "page": 0, "client": "a"},
            {"kind": "client.request", "t": 2.0, "client": "a"},
            {"kind": "client.miss", "t": 2.0, "page": 1, "client": "a"},
        ]
        section = analyze(records)["responses"]
        (row,) = section["slowest"]
        assert row["hit_rate"] == pytest.approx(0.5)
        assert row["requests"] == 2
        assert (section["hits"], section["misses"]) == (1, 1)

    def test_no_client_records_no_section(self):
        assert "responses" not in analyze([{"kind": "sim.event", "t": 0.0}])


class TestMultiChannelTrace:
    """A C=2 run's ``client.retune`` records tally per client."""

    @pytest.mark.parametrize("engine", ["fast", "process"])
    def test_retunes_per_client(self, engine, tmp_path, capsys):
        config = ExperimentConfig(
            disk_sizes=(50, 200, 250), delta=3, cache_size=10,
            policy="LIX", num_requests=200, seed=7, channels=2,
            access_range=500,
        )
        path = str(tmp_path / "c2.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            run_experiment(config, engine=engine, tracer=tracer)
        records = list(read_jsonl(path))
        retunes = {}
        for record in records:
            if record["kind"] == "client.retune":
                client = str(record.get("client", "client"))
                retunes[client] = retunes.get(client, 0) + 1
        assert sum(retunes.values()) > 0
        rows = analyze(records)["responses"]["slowest"]
        assert {row["client"]: row["retunes"] for row in rows} == retunes
        assert main(["summary", path, "--json"]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert sum(
            row["retunes"] for row in document["responses"]["slowest"]
        ) == sum(retunes.values())
        if engine == "process":
            # Both rows' channels deliver only what a client waited for.
            broadcast = document["broadcast"]
            assert (broadcast["runs"], broadcast["runs_checked"]) == (2, 0)
            assert broadcast["fixed_interarrival"] is None

    def test_single_channel_rows_read_zero(self):
        records = [
            {"kind": "client.request", "t": 1.0},
            {"kind": "client.miss", "t": 1.0, "page": 0},
            wait(2.0, 0, 1.0),
        ]
        (row,) = analyze(records)["responses"]["slowest"]
        assert row["retunes"] == 0


class TestAnalyzeDocument:
    def test_only_applicable_sections_appear(self):
        document = analyze([wait(1.0, 0, 2.0)])
        assert document["schema"] == ANALYZE_SCHEMA
        assert document["overview"]["records"] == 1
        assert "responses" in document
        assert "broadcast" not in document
        assert "cache" not in document

    def test_real_trace_is_internally_consistent(self, mini_config):
        sink = MemorySink(capacity=None)
        with Tracer(sink) as tracer:
            run_experiment(mini_config, tracer=tracer)
        records = [record.to_dict() for record in sink.records]
        document = analyze(
            records, disk_sizes=mini_config.disk_sizes
        )
        assert document["cache"]["occupancy_max"] <= (
            mini_config.cache_size
        )
        shares = [
            block["share"]
            for block in document["responses"]["by_disk"].values()
        ]
        assert sum(shares) == pytest.approx(1.0)
        assert document["responses"]["fairness"] == pytest.approx(1.0)

    def test_render_covers_every_section(self, mini_config):
        sink = MemorySink(capacity=None)
        with Tracer(sink) as tracer:
            run_experiment(mini_config, tracer=tracer)
        records = [record.to_dict() for record in sink.records]
        text = render_analysis(analyze(records, disk_sizes=(50, 200, 250)))
        for needle in ("response time by disk", "cache residency",
                       "client latency attribution", "Jain fairness"):
            assert needle in text

    def test_render_empty_document(self):
        assert "no analyzable records" in render_analysis(
            analyze([{"kind": "sim.event", "t": 0.0}])
        )
