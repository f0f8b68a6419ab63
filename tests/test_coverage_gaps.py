"""Direct tests for APIs previously exercised only indirectly."""

import pytest

from repro.core.schedule import BroadcastSchedule
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.index.onem import build_one_m_broadcast
from repro.index.tree import DispatchTree
from repro.index.integrate import index_schedule
from repro.core.disks import DiskLayout
from repro.core.programs import _multidisk_program as multidisk_program
from repro.server.channel import BroadcastChannel
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class TestResourceCancel:
    def test_cancel_queued_request(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resource.request()          # granted immediately
        queued = resource.request() # waits
        assert resource.cancel(queued) is True
        resource.release()
        sim.run()
        assert not queued.processed  # never granted
        assert resource.in_use == 0

    def test_cancel_granted_request_returns_false(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        granted = resource.request()
        assert resource.cancel(granted) is False
        resource.release()  # caller still owns the unit


class TestExtraWarmupProperty:
    def test_zero_without_cache(self):
        config = ExperimentConfig(cache_size=1, num_requests=1000)
        assert config.extra_warmup == 0

    def test_zero_with_explicit_warmup(self):
        config = ExperimentConfig(
            cache_size=100, warmup_requests=50, num_requests=1000
        )
        assert config.extra_warmup == 0

    def test_scales_with_factor(self):
        config = ExperimentConfig(
            cache_size=100, num_requests=1000, steady_state_factor=3.0
        )
        assert config.extra_warmup == 3000

    def test_factor_zero_disables_shakeout(self):
        config = ExperimentConfig(
            cache_size=100, num_requests=1000, steady_state_factor=0.0
        )
        assert config.extra_warmup == 0


class TestDispatchTreeInternals:
    def test_lookup_path_depth(self):
        tree = DispatchTree(list(range(16)), fanout=2)
        path = tree.lookup_path(5)
        assert len(path) == tree.depth
        assert path[0] is tree.root
        assert path[-1].is_bottom

    def test_lookup_path_absent_key(self):
        tree = DispatchTree([0, 2, 4], fanout=2)
        assert tree.lookup_path(99) is None

    def test_child_for_boundaries(self):
        tree = DispatchTree([0, 2, 4], fanout=4)
        bottom = tree.lookup_path(0)[-1]
        assert bottom.child_for(0) == 0
        assert bottom.child_for(4) == 2
        assert bottom.child_for(1) is None


class TestNumDataBuckets:
    def test_flat_cycle_counts_keys(self):
        broadcast = build_one_m_broadcast(list(range(10)), m=2, fanout=4)
        assert broadcast.num_data_buckets == 10

    def test_multidisk_cycle_counts_repeats(self):
        layout = DiskLayout.from_delta((2, 4, 8), delta=1)
        indexed = index_schedule(multidisk_program(layout), m=1, fanout=4)
        # Hot pages repeat: data buckets exceed distinct keys.
        assert indexed.num_data_buckets > len(indexed.keys)
        expected = sum(
            size * freq for size, freq in layout
        )
        assert indexed.num_data_buckets == expected


class TestChannelServerInterface:
    def test_has_demand_and_next_interesting_time(self):
        sim = Simulator()
        channel = BroadcastChannel(sim, BroadcastSchedule([0, 1, 2]))
        assert not channel.has_demand()
        assert channel.next_interesting_time(0.0) is None
        channel.wait_for(2)
        assert channel.has_demand()
        assert channel.next_interesting_time(0.0) == 3.0

    def test_deliver_at_pops_waiters(self):
        sim = Simulator()
        channel = BroadcastChannel(sim, BroadcastSchedule([0, 1, 2]))
        event = channel.wait_for(0)
        channel.deliver_at(1.0)
        sim.run()
        assert event.processed
        assert not channel.has_demand()

    def test_deliver_at_padding_instant_is_noop(self):
        from repro.core.chunks import EMPTY_SLOT

        sim = Simulator()
        channel = BroadcastChannel(
            sim, BroadcastSchedule([0, EMPTY_SLOT, 2])
        )
        channel.wait_for(2)
        channel.deliver_at(2.0)  # the padding slot's completion
        assert channel.has_demand()  # waiter untouched

    def test_demand_event_reused_until_triggered(self):
        sim = Simulator()
        channel = BroadcastChannel(sim, BroadcastSchedule([0]))
        first = channel.demand_event()
        assert channel.demand_event() is first
        channel.wait_for(0)  # triggers the demand signal
        second = channel.demand_event()
        assert second is not first


class TestExtensionFiguresSmoke:
    """Tiny-scale smoke runs of the extension figure entry points."""

    def test_volatility_study(self):
        from repro.experiments.figures import volatility_study

        data = volatility_study(
            num_requests=300, update_intervals=(1e6,), cache_size=100
        )
        assert len(data.series["stale frac (no reports)"]) == 1

    def test_indexing_tradeoff(self):
        from repro.experiments.figures import indexing_tradeoff

        data = indexing_tradeoff(
            num_data_buckets=64, ms=(1, 2), probes=100, fanout=4
        )
        assert len(data.series["access (sim)"]) == 2

    def test_indexed_multidisk_study(self):
        from repro.experiments.figures import indexed_multidisk_study

        data = indexed_multidisk_study(probes=150)
        assert len(data.x_values) == 2

    def test_query_study(self):
        from repro.experiments.figures import query_study

        data = query_study(query_sizes=(1, 3), trials=50, num_pages=60)
        sequential = data.series["sequential"]
        opportunistic = data.series["opportunistic"]
        assert opportunistic[1] <= sequential[1]

    def test_shaping_ablation(self):
        from repro.experiments.figures import shaping_ablation

        data = shaping_ablation(num_requests=400, max_disks=2)
        assert "optimised" in data.x_values

    def test_prefetch_comparison(self):
        from repro.experiments.figures import prefetch_comparison

        data = prefetch_comparison(
            num_requests=150, deltas=(1,), cache_size=100
        )
        assert len(data.series["PT prefetch"]) == 1
