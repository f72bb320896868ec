"""The discrete-event engine: ordering, cancellation, clock discipline."""

import pytest

from repro.sim.engine import Engine


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_after_advances_clock(self):
        eng = Engine()
        eng.after(2.5, lambda: None)
        eng.run()
        assert eng.now == 2.5

    def test_at_absolute_time(self):
        eng = Engine()
        fired = []
        eng.at(3.0, fired.append, "x")
        eng.run()
        assert fired == ["x"]
        assert eng.now == 3.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.after(2.0, order.append, "late")
        eng.after(1.0, order.append, "early")
        eng.run()
        assert order == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.after(1.0, order.append, i)
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.after(5.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().after(-1.0, lambda: None)

    def test_zero_delay_allowed(self):
        eng = Engine()
        fired = []
        eng.after(0.0, fired.append, 1)
        eng.run()
        assert fired == [1]

    def test_callbacks_can_schedule_more(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                eng.after(1.0, chain, n + 1)

        eng.after(1.0, chain, 0)
        eng.run()
        assert seen == [0, 1, 2, 3]
        assert eng.now == 4.0


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        ev = eng.after(1.0, fired.append, "no")
        ev.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        ev = eng.after(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        eng.run()

    def test_cancel_does_not_block_others(self):
        eng = Engine()
        fired = []
        eng.after(1.0, fired.append, "a").cancel()
        eng.after(1.0, fired.append, "b")
        eng.run()
        assert fired == ["b"]


class TestRunControl:
    def test_run_until_stops_clock_there(self):
        eng = Engine()
        fired = []
        eng.after(1.0, fired.append, 1)
        eng.after(10.0, fired.append, 2)
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 2]

    def test_max_events_guard(self):
        eng = Engine()

        def forever():
            eng.after(1.0, forever)

        eng.after(1.0, forever)
        eng.run(max_events=10)
        assert eng.events_fired == 10

    def test_until_is_not_overshot_past_a_cancelled_head(self):
        """A cancelled event before ``until`` must not license firing the
        next live one after it (PreemptiveCPU cancels events all the time)."""
        eng = Engine()
        fired = []
        eng.at(1.0, fired.append, "dead").cancel()
        eng.at(5.0, fired.append, "late")
        assert eng.run(until=2.0) == 2.0
        assert fired == []
        assert eng.run() == 5.0
        assert fired == ["late"]

    def test_until_with_only_cancelled_events_drains_without_moving_the_clock(self):
        eng = Engine()
        eng.at(1.0, lambda: None).cancel()
        assert eng.run(until=2.0) == 0.0
        assert eng.pending == 0

    def test_max_events_does_not_count_cancelled_heads(self):
        eng = Engine()
        fired = []
        eng.at(1.0, fired.append, "dead").cancel()
        eng.at(2.0, fired.append, "a")
        eng.at(3.0, fired.append, "b")
        eng.run(max_events=1)
        assert fired == ["a"]
        assert eng.now == 2.0
        assert eng.events_fired == 1
        eng.run(max_events=0)
        assert fired == ["a"]

    def test_step_skips_cancelled_events(self):
        eng = Engine()
        fired = []
        eng.at(1.0, fired.append, "dead").cancel()
        eng.at(2.0, fired.append, "live")
        assert eng.step() is True
        assert fired == ["live"]
        assert eng.step() is False

    def test_same_time_events_scheduled_from_a_callback_keep_schedule_order(self):
        eng = Engine()
        order = []

        def first():
            order.append("first")
            # Same timestamp as the already-queued "second": both must still
            # fire in the order they were scheduled, after it.
            eng.after(0.0, order.append, "third")
            eng.at(1.0, order.append, "fourth")

        eng.at(1.0, first)
        eng.at(1.0, order.append, "second")
        eng.run()
        assert order == ["first", "second", "third", "fourth"]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_step_fires_one(self):
        eng = Engine()
        fired = []
        eng.after(1.0, fired.append, 1)
        eng.after(2.0, fired.append, 2)
        assert eng.step() is True
        assert fired == [1]

    def test_pending_counts_queue(self):
        eng = Engine()
        eng.after(1.0, lambda: None)
        eng.after(2.0, lambda: None)
        assert eng.pending == 2

    def test_determinism(self):
        def run_once():
            eng = Engine()
            log = []
            for i in range(20):
                eng.after((i * 7) % 5 + 0.1, log.append, i)
            eng.run()
            return log

        assert run_once() == run_once()
