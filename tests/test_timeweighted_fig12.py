"""TimeWeightedStat unit tests + the paper's Figure 12 worked example."""

import pytest

from repro.cache.base import PolicyContext
from repro.cache.lix import LIXPolicy
from repro.hybrid.channel import HybridChannel
from repro.core.programs import _flat_program as flat_program
from repro.server.server import BroadcastServer
from repro.sim.kernel import Simulator
from repro.sim.stats import TimeWeightedStat


class TestTimeWeightedStat:
    def test_constant_signal(self):
        stat = TimeWeightedStat()
        stat.record(10.0, 5.0)  # value was 0 for 10 units, now 5
        assert stat.mean() == pytest.approx(0.0)
        stat.record(20.0, 5.0)
        assert stat.mean() == pytest.approx(2.5)  # 0 for 10u, 5 for 10u

    def test_weighted_by_duration(self):
        stat = TimeWeightedStat(initial_value=2.0)
        stat.record(1.0, 10.0)   # 2 held for 1 unit
        stat.record(4.0, 0.0)    # 10 held for 3 units
        # mean = (2*1 + 10*3) / 4 = 8
        assert stat.mean() == pytest.approx(8.0)

    def test_mean_up_to_now_extends_last_value(self):
        stat = TimeWeightedStat()
        stat.record(2.0, 4.0)
        # 0 for 2 units, then 4 for 6 more units.
        assert stat.mean(now=8.0) == pytest.approx(3.0)

    def test_maximum_tracked(self):
        stat = TimeWeightedStat()
        stat.record(1.0, 7.0)
        stat.record(2.0, 3.0)
        assert stat.maximum == 7.0

    def test_time_cannot_go_backwards(self):
        stat = TimeWeightedStat()
        stat.record(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.record(4.0, 2.0)
        with pytest.raises(ValueError):
            stat.mean(now=4.0)

    def test_current_value(self):
        stat = TimeWeightedStat()
        stat.record(1.0, 9.0)
        assert stat.current == 9.0

    def test_no_elapsed_time_returns_current(self):
        stat = TimeWeightedStat(initial_value=3.0)
        assert stat.mean() == 3.0

    def test_projection_to_last_change_is_identity(self):
        stat = TimeWeightedStat()
        stat.record(2.0, 4.0)
        stat.record(6.0, 1.0)
        assert stat.mean(now=6.0) == stat.mean()

    def test_projection_matches_closed_form(self):
        # Piecewise-constant: 0 on [0,2), 4 on [2,6), 1 on [6,10).
        stat = TimeWeightedStat()
        stat.record(2.0, 4.0)
        stat.record(6.0, 1.0)
        expected = (0.0 * 2 + 4.0 * 4 + 1.0 * 4) / 10.0
        assert stat.mean(now=10.0) == pytest.approx(expected)
        # Projection must not mutate the accumulator.
        assert stat.mean() == pytest.approx((0.0 * 2 + 4.0 * 4) / 6.0)

    def test_projection_with_no_changes_extends_initial_value(self):
        stat = TimeWeightedStat(start_time=5.0, initial_value=2.0)
        assert stat.mean(now=9.0) == pytest.approx(2.0)

    def test_zero_span_change_keeps_time_and_updates_value(self):
        stat = TimeWeightedStat()
        stat.record(3.0, 1.0)
        stat.record(3.0, 8.0)  # simultaneous change is legal
        assert stat.current == 8.0
        assert stat.maximum == 8.0
        assert stat.mean() == pytest.approx(0.0)  # only value 0 has held


class TestHybridQueueMonitoring:
    def test_queue_stat_reflects_load(self):
        sim = Simulator()
        channel = HybridChannel(sim, flat_program(8), pull_spacing=4)
        BroadcastServer(sim, channel.schedule, channel)
        for page in (1, 2, 3):
            channel.request_pull(page)
        sim.run(until=12.0)  # pulls served at t=4, 8, 12
        assert channel.queue_stat.maximum == 3
        assert channel.pull_slots_used == 3
        # Queue drained: final value zero, time-weighted mean positive.
        assert channel.queue_stat.current == 0
        assert channel.queue_stat.mean() > 0


class TestFigure12WorkedExample:
    """The paper's Figure 12: a two-disk LIX replacement step.

    Two chains (Disk1Q, Disk2Q); the bottoms are evaluated; the bottom
    with the smaller lix value is the victim; the incoming page, being
    broadcast on disk 2, joins Disk2Q — so the queues change size.
    """

    def test_replacement_moves_queue_boundary(self):
        # Disk 1 is broadcast 10x as often as disk 2.
        context = PolicyContext(
            frequency=lambda page: 0.10 if page < 100 else 0.01,
            disk_of=lambda page: 0 if page < 100 else 1,
            num_disks=2,
        )
        policy = LIXPolicy(8, context)
        # Fill: 4 pages per chain (a..g analogue), interleaved history.
        disk1_pages = [0, 1, 2, 3]
        disk2_pages = [100, 101, 102, 103]
        time = 0.0
        for page in (0, 100, 1, 101, 2, 102, 3, 103):
            time += 2.0
            policy.admit(page, time)
        # Touch everything except the bottoms so recency is realistic.
        for page in (1, 2, 3, 101, 102, 103):
            time += 2.0
            policy.lookup(page, time)
        assert policy.chain_pages(0)[0] == 0     # "g": bottom of Disk1Q
        assert policy.chain_pages(1)[0] == 100   # "k": bottom of Disk2Q

        before = (len(policy.chain_pages(0)), len(policy.chain_pages(1)))
        # New page z arrives from disk 2.  The two bottoms have equal
        # aged estimates, but the disk-1 bottom's frequency is 10x, so
        # its lix value is 10x smaller: it is the victim.
        time += 2.0
        victim = policy.admit(150, time)
        after = (len(policy.chain_pages(0)), len(policy.chain_pages(1)))

        assert victim == 0                       # "g" evicted
        assert after[0] == before[0] - 1         # Disk1Q shrank
        assert after[1] == before[1] + 1         # Disk2Q grew
        assert policy.chain_pages(1)[-1] == 150  # z on top of Disk2Q
