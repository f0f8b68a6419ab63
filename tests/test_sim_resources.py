"""Unit tests for Resource (repro.sim.resources)."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class TestResource:
    def test_grant_when_capacity_available(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        grant = resource.request()
        sim.run()
        assert grant.processed
        assert resource.in_use == 1

    def test_second_request_queues(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        sim.run()
        assert first.processed
        assert not second.processed
        assert resource.queue_length == 1

    def test_release_wakes_waiter_fifo(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resource.request()
        second = resource.request()
        third = resource.request()
        resource.release()
        sim.run()
        assert second.processed
        assert not third.processed

    def test_release_without_request_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_multi_unit_capacity(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)
        grants = [resource.request() for _ in range(4)]
        sim.run()
        assert [g.processed for g in grants] == [True, True, True, False]

    def test_process_usage_pattern(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []

        def user(name, hold):
            grant = resource.request()
            yield grant
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            log.append((name, "out", sim.now))
            resource.release()

        sim.process(user("a", 5.0))
        sim.process(user("b", 2.0))
        sim.run()
        assert log == [
            ("a", "in", 0.0), ("a", "out", 5.0),
            ("b", "in", 5.0), ("b", "out", 7.0),
        ]
