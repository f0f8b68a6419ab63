"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator, Timeout


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start=10.5).now == 10.5

    def test_run_with_empty_queue_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()


class TestTimeout:
    def test_timeout_fires_at_due_time(self):
        sim = Simulator()
        fired = []
        sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_timeout_value_is_delivered(self):
        sim = Simulator()
        seen = []
        sim.timeout(1.0, value="payload").add_callback(
            lambda ev: seen.append(ev.value)
        )
        sim.run()
        assert seen == ["payload"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timeout(sim, -1.0)

    def test_timeouts_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay, value=delay).add_callback(
                lambda ev: order.append(ev.value)
            )
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_simultaneous_timeouts_fire_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.timeout(1.0, value=tag).add_callback(
                lambda ev: order.append(ev.value)
            )
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_initially_pending(self):
        event = Simulator().event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_triggers(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        sim.run()
        assert event.processed
        assert event.ok
        assert event.value == 42

    def test_double_trigger_raises(self):
        event = Simulator().event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self):
        event = Simulator().event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("done")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["done"]

    def test_delayed_succeed(self):
        sim = Simulator()
        event = sim.event()
        fired_at = []
        event.add_callback(lambda ev: fired_at.append(sim.now))
        event.succeed(delay=7.0)
        sim.run()
        assert fired_at == [7.0]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.timeout(10.0).add_callback(lambda ev: fired.append(10))
        sim.timeout(20.0).add_callback(lambda ev: fired.append(20))
        sim.run(until=15.0)
        assert fired == [10]
        assert sim.now == 15.0

    def test_run_until_is_inclusive_of_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.timeout(15.0).add_callback(lambda ev: fired.append(15))
        sim.run(until=15.0)
        assert fired == [15]

    def test_max_events_limits_processing(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.timeout(delay).add_callback(lambda ev: fired.append(sim.now))
        sim.run(max_events=2)
        assert fired == [1.0, 2.0]

    def test_run_until_event_returns_value(self):
        sim = Simulator()
        event = sim.event()
        sim.timeout(3.0).add_callback(lambda ev: event.succeed("ready"))
        assert sim.run_until_event(event) == "ready"
        assert sim.now == 3.0

    def test_run_until_event_detects_drained_queue(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_event(never)

    def test_run_until_event_respects_limit(self):
        sim = Simulator()
        event = sim.event()
        sim.timeout(100.0).add_callback(lambda ev: event.succeed())
        with pytest.raises(SimulationError):
            sim.run_until_event(event, limit=10.0)

    def test_schedule_callback(self):
        sim = Simulator()
        calls = []
        sim.schedule(4.0, lambda: calls.append(sim.now))
        sim.run()
        assert calls == [4.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for delay in (1.0, 2.0):
            sim.timeout(delay)
        sim.run()
        assert sim.events_processed == 2

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        times = []
        for delay in (5.0, 1.0, 3.0, 1.0):
            sim.timeout(delay).add_callback(lambda ev: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
