"""Unit tests for generator processes (repro.sim.process)."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import AnyOf, Process


class TestProcessBasics:
    def test_process_runs_to_completion(self):
        sim = Simulator()
        log = []

        def worker():
            log.append(("start", sim.now))
            yield sim.timeout(5.0)
            log.append(("middle", sim.now))
            yield sim.timeout(3.0)
            log.append(("end", sim.now))

        sim.process(worker())
        sim.run()
        assert log == [("start", 0.0), ("middle", 5.0), ("end", 8.0)]

    def test_process_return_value_becomes_event_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(worker())
        sim.run()
        assert process.processed
        assert process.value == "result"

    def test_process_is_alive_until_generator_returns(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(10.0)

        process = sim.process(worker())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yield_event_from_other_simulator_raises(self):
        sim_a = Simulator()
        sim_b = Simulator()

        def bad():
            yield sim_b.timeout(1.0)

        sim_a.process(bad())
        with pytest.raises(SimulationError):
            sim_a.run()

    def test_timeout_value_is_sent_into_generator(self):
        sim = Simulator()
        received = []

        def worker():
            value = yield sim.timeout(1.0, value="hello")
            received.append(value)

        sim.process(worker())
        sim.run()
        assert received == ["hello"]


class TestProcessComposition:
    def test_process_waits_for_another_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield sim.timeout(4.0)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            log.append((result, sim.now))

        sim.process(outer())
        sim.run()
        assert log == [("inner-done", 4.0)]

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def ticker(name, interval, count):
            for _ in range(count):
                yield sim.timeout(interval)
                log.append((name, sim.now))

        sim.process(ticker("fast", 1.0, 3))
        sim.process(ticker("slow", 2.0, 2))
        sim.run()
        assert log == [
            ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
            ("fast", 3.0), ("slow", 4.0),
        ]

    def test_waiting_on_already_processed_event_resumes_immediately(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("early")
        sim.run()
        log = []

        def late_joiner():
            value = yield done
            log.append((value, sim.now))

        sim.process(late_joiner())
        sim.run()
        assert log == [("early", 0.0)]


class TestAnyOfAllOf:
    def test_anyof_fires_on_first_event(self):
        sim = Simulator()
        log = []

        def waiter():
            result = yield AnyOf(sim, [sim.timeout(3.0, "a"), sim.timeout(7.0, "b")])
            log.append((sorted(result.values()), sim.now))

        sim.process(waiter())
        sim.run()
        assert log == [(["a"], 3.0)]

    def test_anyof_with_no_events_fires_immediately(self):
        sim = Simulator()
        any_of = AnyOf(sim, [])
        sim.run()
        assert any_of.processed
        assert any_of.value == {}
