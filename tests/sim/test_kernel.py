"""Tests for the discrete-event kernel and its clock, ``Simulator.now``."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_action_at_correct_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(2.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in ["a", "b", "c", "d"]:
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_priority_breaks_ties_before_sequence(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=5)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_event_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestRun:
    def test_run_until_horizon_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(10.0, lambda: fired.append(10.0))
        sim.run(until=5.0)
        assert fired == [1.0]
        assert sim.now == 5.0
        assert sim.pending() == 1

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.1, forever)

        sim.schedule(0.1, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        event = sim.step()
        assert fired == ["a"]
        assert event is not None and event.time == 1.0

    def test_step_on_empty_queue_returns_none(self):
        assert Simulator().step() is None

    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_step_refuses_to_move_time_backwards(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.now = 2.0
        with pytest.raises(SimulationError, match="backwards"):
            sim.step()
        assert sim.now == 2.0
        assert sim.events_executed == 0

    def test_step_at_the_current_time_is_allowed(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.now = 2.0
        assert sim.step() is not None
        assert sim.now == 2.0

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_run_drains_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]
        assert sim.pending() == 0


class TestDeterminism:
    def test_same_seed_same_random_sequence(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]

    def test_different_seed_different_sequence(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert [a.rng.random() for _ in range(5)] != [b.rng.random() for _ in range(5)]
