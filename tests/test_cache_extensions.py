"""Unit tests for the LRU-K and 2Q extension policies and the registry."""

import pytest

from repro.cache import registry
from repro.cache.base import CacheCounters, CachePolicy, PolicyContext
from repro.cache.lruk import LRUKPolicy
from repro.cache.registry import available_policies, make_policy
from repro.cache.twoq import TwoQPolicy
from repro.errors import ConfigurationError, PolicyError


class TestLRUK:
    def test_underfilled_pages_evicted_first(self):
        policy = LRUKPolicy(3, k=2)
        policy.admit(0, 1.0)
        policy.admit(1, 2.0)
        policy.admit(2, 3.0)
        policy.lookup(0, 4.0)  # page 0 now has 2 references
        policy.lookup(1, 5.0)  # page 1 too
        evicted = policy.admit(3, 6.0)
        assert evicted == 2  # only one reference: infinite K-distance

    def test_among_underfilled_evict_oldest_last_reference(self):
        policy = LRUKPolicy(2, k=2)
        policy.admit(0, 1.0)
        policy.admit(1, 2.0)
        assert policy.admit(2, 3.0) == 0

    def test_among_filled_evict_oldest_kth_reference(self):
        policy = LRUKPolicy(2, k=2)
        policy.admit(0, 1.0)
        policy.admit(1, 2.0)
        policy.lookup(0, 3.0)
        policy.lookup(1, 4.0)
        policy.lookup(0, 10.0)  # 0's 2nd-most-recent ref is 3.0
        policy.lookup(1, 5.0)   # 1's 2nd-most-recent ref is 4.0
        assert policy.admit(2, 11.0) == 0

    def test_history_bounded_to_k(self):
        policy = LRUKPolicy(2, k=2)
        policy.admit(0, 1.0)
        for time in (2.0, 3.0, 4.0):
            policy.lookup(0, time)
        # Only the last two references are retained; page 0's K-distance
        # anchor is 3.0, not 1.0.
        policy.admit(1, 5.0)
        policy.lookup(1, 5.5)
        policy.lookup(1, 6.0)
        assert policy.admit(2, 7.0) == 0  # 0's kth ref 3.0 < 1's 5.5

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            LRUKPolicy(2, k=0)

    def test_k1_behaves_like_lru(self):
        policy = LRUKPolicy(2, k=1)
        policy.admit(0, 1.0)
        policy.admit(1, 2.0)
        policy.lookup(0, 3.0)
        assert policy.admit(2, 4.0) == 1

    def test_double_admit_raises(self):
        policy = LRUKPolicy(2, k=2)
        policy.admit(0, 1.0)
        with pytest.raises(PolicyError):
            policy.admit(0, 2.0)


class TestTwoQ:
    def test_first_touch_goes_to_a1in(self):
        policy = TwoQPolicy(8)
        policy.admit(0, 1.0)
        assert policy.queue_sizes()["a1in"] == 1
        assert policy.queue_sizes()["am"] == 0

    def test_rereference_after_a1in_expiry_promotes_to_am(self):
        policy = TwoQPolicy(4, kin_fraction=0.25, kout_fraction=0.5)
        # kin = 1: the second admit pushes the first page to the ghost list.
        for page, time in ((0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)):
            policy.admit(page, time)
        policy.admit(4, 5.0)  # cache full: demotes A1in head (0) to A1out
        assert 0 not in policy
        policy.admit(0, 6.0)  # 0 found in A1out -> promoted to Am
        assert policy.queue_sizes()["am"] >= 1
        assert 0 in policy

    def test_hit_in_a1in_does_not_promote(self):
        policy = TwoQPolicy(8)
        policy.admit(0, 1.0)
        assert policy.lookup(0, 2.0)
        assert policy.queue_sizes()["am"] == 0

    def test_hit_in_am_refreshes_lru_position(self):
        policy = TwoQPolicy(4, kin_fraction=0.25)
        for page, time in enumerate(range(8)):
            if page not in policy:
                policy.admit(page, float(time))
        # Build Am membership via ghost re-admission.
        sizes = policy.queue_sizes()
        assert sizes["a1in"] + sizes["am"] <= 4

    def test_capacity_never_exceeded(self):
        policy = TwoQPolicy(4)
        for page in range(20):
            if page not in policy:
                policy.admit(page, float(page))
            assert len(policy) <= 4

    def test_ghost_queue_bounded(self):
        policy = TwoQPolicy(4, kout_fraction=0.5)
        for page in range(50):
            if page not in policy:
                policy.admit(page, float(page))
        assert policy.queue_sizes()["a1out"] <= policy.kout

    def test_double_admit_raises(self):
        policy = TwoQPolicy(4)
        policy.admit(0, 1.0)
        with pytest.raises(PolicyError):
            policy.admit(0, 2.0)


class TestRegistry:
    def test_available_policies(self):
        names = available_policies()
        for expected in ("P", "PIX", "LRU", "L", "LIX"):
            assert expected in names

    def test_make_each_policy(self):
        context = PolicyContext(
            probability=lambda page: 0.1,
            frequency=lambda page: 0.1,
            disk_of=lambda page: 0,
            num_disks=1,
        )
        for name in registry._FACTORIES:
            policy = make_policy(name, 4, context)
            assert isinstance(policy, CachePolicy), name
            policy.admit(0, 1.0)
            assert 0 in policy

    def test_policy_missing_abstract_method_cannot_be_built(self, monkeypatch):
        # CachePolicy is an ABC, so the interpreter itself rejects a
        # registered class that leaves part of the protocol out.
        class NoDiscardPolicy(CachePolicy):
            def __init__(self, capacity, context):
                super().__init__(capacity)

            def __contains__(self, page):
                return False

            def __len__(self):
                return 0

            def pages(self):
                return ()

            def lookup(self, page, now):
                return False

            def admit(self, page, now):
                return None

        monkeypatch.setitem(registry._FACTORIES, "lru", NoDiscardPolicy)
        with pytest.raises(TypeError, match="discard"):
            make_policy("LRU", 4, PolicyContext())

    def test_names_case_insensitive(self):
        context = PolicyContext(disk_of=lambda page: 0, num_disks=1)
        assert type(make_policy("lru", 4, context)).name == "LRU"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("CLOCK", 4, PolicyContext())


class TestCacheCounters:
    def test_hit_rate(self):
        counters = CacheCounters()
        counters.record_hit()
        counters.record_hit()
        counters.record_miss(0)
        assert counters.requests == 3
        assert counters.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate(self):
        assert CacheCounters().hit_rate == 0.0

    def test_access_locations(self):
        counters = CacheCounters()
        counters.record_hit()
        counters.record_miss(0)
        counters.record_miss(2)
        locations = counters.access_locations(num_disks=3)
        assert locations["cache"] == pytest.approx(1 / 3)
        assert locations["disk1"] == pytest.approx(1 / 3)
        assert locations["disk2"] == 0.0
        assert locations["disk3"] == pytest.approx(1 / 3)

    def test_locations_sum_to_one(self):
        counters = CacheCounters()
        for _ in range(5):
            counters.record_hit()
        for disk in (0, 1, 1, 2):
            counters.record_miss(disk)
        locations = counters.access_locations(num_disks=3)
        assert sum(locations.values()) == pytest.approx(1.0)
