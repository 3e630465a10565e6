"""Tests for the virtual clock and event scheduler."""

import pytest

from repro.clock import DAY, EventScheduler, HOUR, MINUTE, SimClock


class TestSimClock:
    def test_starts_at_epoch(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(start=100.0).now() == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance(self):
        clock = SimClock()
        clock.advance(90 * MINUTE)
        assert clock.now() == pytest.approx(5400.0)

    def test_advance_zero_is_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(DAY)
        assert clock.now() == DAY

    def test_advance_to_past_rejected(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_units(self):
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR


class TestEventScheduler:
    def test_single_event_fires(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_at(10.0, fired.append)
        assert scheduler.run_until(20.0) == 1
        assert fired == [10.0]
        assert clock.now() == 20.0

    def test_events_fire_in_time_order(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_at(30.0, lambda t: fired.append("late"))
        scheduler.schedule_at(10.0, lambda t: fired.append("early"))
        scheduler.run_until(100.0)
        assert fired == ["early", "late"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        for name in ("a", "b", "c"):
            scheduler.schedule_at(5.0, lambda t, name=name: fired.append(name))
        scheduler.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_past_scheduling_rejected(self):
        clock = SimClock(start=50.0)
        scheduler = EventScheduler(clock)
        with pytest.raises(ValueError):
            scheduler.schedule_at(10.0, lambda t: None)

    def test_schedule_after(self):
        clock = SimClock(start=100.0)
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_after(5.0, fired.append)
        scheduler.run_until(200.0)
        assert fired == [105.0]

    def test_recurring_respects_until(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_every(15 * MINUTE, fired.append, until=HOUR)
        scheduler.run_until(2 * HOUR)
        # Fires at 0, 15, 30, 45, 60 minutes.
        assert fired == [0.0, 15 * MINUTE, 30 * MINUTE, 45 * MINUTE, HOUR]

    def test_recurring_interval_must_be_positive(self):
        scheduler = EventScheduler(SimClock())
        with pytest.raises(ValueError):
            scheduler.schedule_every(0.0, lambda t: None)

    def test_events_beyond_deadline_stay_queued(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        fired = []
        scheduler.schedule_at(50.0, fired.append)
        scheduler.run_until(10.0)
        assert fired == []
        assert len(scheduler) == 1
        scheduler.run_until(60.0)
        assert fired == [50.0]

    def test_clock_advances_to_each_event(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        seen = []
        scheduler.schedule_at(7.0, lambda t: seen.append(clock.now()))
        scheduler.run_until(100.0)
        assert seen == [7.0]

    def test_interleaved_recurrences_stay_deterministic(self):
        """15-min milking and 30-min GSB rounds interleave like §4.2."""
        clock = SimClock()
        scheduler = EventScheduler(clock)
        order = []
        scheduler.schedule_every(15 * MINUTE, lambda t: order.append(("milk", t)))
        scheduler.schedule_every(30 * MINUTE, lambda t: order.append(("gsb", t)))
        scheduler.run_until(30 * MINUTE)
        # At t=30 the gsb recurrence (enqueued at t=0) precedes the milk
        # recurrence (enqueued at t=15): insertion order is preserved.
        assert order == [
            ("milk", 0.0),
            ("gsb", 0.0),
            ("milk", 15 * MINUTE),
            ("gsb", 30 * MINUTE),
            ("milk", 30 * MINUTE),
        ]
