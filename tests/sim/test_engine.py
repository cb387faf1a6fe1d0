"""Unit tests for the discrete-event engine."""

from collections import deque

import pytest

from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, lambda _: seen.append("c"))
    sim.schedule(10, lambda _: seen.append("a"))
    sim.schedule(20, lambda _: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_callbacks_fifo():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(7, lambda _, i=i: seen.append(i))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda _: None)
    with pytest.raises(ValueError):
        sim.delay(-5)


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    sim.schedule(100, lambda _: None)
    sim.run(until=40)
    assert sim.now == 40
    assert sim.pending_events == 1
    sim.run()
    assert sim.now == 100


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=55)
    assert sim.now == 55


def test_call_soon_runs_after_current_callbacks():
    sim = Simulator()
    seen = []

    def first(_):
        seen.append("first")
        sim.call_soon(lambda _: seen.append("soon"))

    sim.schedule(5, first)
    sim.schedule(5, lambda _: seen.append("second"))
    sim.run()
    assert seen == ["first", "second", "soon"]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_delay_charges_ledger_tag():
    sim = Simulator()
    sim.delay(25, tag="os")
    sim.delay(10, tag="os")
    sim.delay(7, tag="xfer")
    assert sim.ledger.total("os") == 35
    assert sim.ledger.total("xfer") == 7


def test_delay_without_tag_charges_nothing():
    sim = Simulator()
    sim.delay(25)
    assert sim.ledger.snapshot() == {}


# -- integer-cycle validation --------------------------------------------------


def test_schedule_coerces_integral_float():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [3]
    assert type(sim.now) is int


def test_schedule_rejects_fractional_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(2.5, lambda _: None)


def test_schedule_rejects_non_numeric_delay():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule("10", lambda _: None)


def test_delay_coerces_integral_float_and_rejects_fractional():
    sim = Simulator()
    sim.delay(4.0, tag="os")
    assert sim.ledger.total("os") == 4
    with pytest.raises(ValueError):
        sim.delay(0.5)
    with pytest.raises(TypeError):
        sim.delay(None)


# -- cancellation --------------------------------------------------------------


def test_cancel_future_event_never_fires():
    sim = Simulator()
    seen = []
    handle = sim.schedule(10, lambda _: seen.append("cancelled"))
    sim.schedule(20, lambda _: seen.append("kept"))
    sim.cancel(handle)
    sim.run()
    assert seen == ["kept"]
    assert sim.pending_events == 0


def test_cancel_same_cycle_callback():
    sim = Simulator()
    seen = []
    handle = sim.call_soon(lambda _: seen.append("cancelled"))
    sim.cancel(handle)
    sim.call_soon(lambda _: seen.append("kept"))
    sim.run()
    assert seen == ["kept"]
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.cancel(handle)
    sim.cancel(handle)  # second cancel must not corrupt the accounting
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0  # a dead entry never drags the clock forward


def test_cancelled_entry_does_not_hold_the_clock():
    """A run whose only remaining work is cancelled entries terminates."""
    sim = Simulator()
    for delay in (3, 7, 11):
        sim.cancel(sim.schedule(delay, lambda _: None))
    sim.run()
    assert sim.pending_events == 0


# -- run(until=...) boundary semantics ----------------------------------------


def test_run_until_fires_events_exactly_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(40, lambda _: seen.append("at"))
    sim.schedule(41, lambda _: seen.append("after"))
    sim.run(until=40)
    assert seen == ["at"]
    assert sim.now == 40
    assert sim.pending_events == 1
    sim.run()
    assert seen == ["at", "after"]
    assert sim.now == 41


def test_run_until_clock_lands_on_limit_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(10, lambda _: None)
    sim.run(until=80)
    assert sim.now == 80
    assert sim.pending_events == 0


def test_run_until_same_limit_twice_is_a_no_op():
    sim = Simulator()
    sim.schedule(90, lambda _: None)
    sim.run(until=30)
    sim.run(until=30)
    assert sim.now == 30
    assert sim.pending_events == 1


def test_run_until_in_the_past_is_rejected():
    # Regression: the clock used to rewind to ``until``, so a timer set
    # after run(until=50) fired at cycle 60, after cycle 150 had run.
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda _: seen.append(sim.now))
    sim.schedule(300, lambda _: seen.append(sim.now))
    sim.run(until=150)
    with pytest.raises(ValueError):
        sim.run(until=50)
    assert sim.now == 150
    sim.schedule(10, lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [100, 160, 300]


class CountingBucket(deque):
    """A ready queue recording every live callback it hands out, the
    way a host benchmark counts executed events."""

    def __init__(self, *args):
        super().__init__(*args)
        self.handed_out = []

    def popleft(self):
        entry = super().popleft()
        if entry[-2] is not None:
            self.handed_out.append(entry[-2])
        return entry


def test_every_executed_callback_leaves_through_the_bucket():
    sim = Simulator()
    sim._bucket = bucket = CountingBucket()
    ran = []

    def callback(name):
        def run(_):
            ran.append(run)
            if name == "a":
                sim.call_soon(callback("soon"))
        return run

    sim.schedule(10, callback("a"))
    sim.schedule(10, callback("b"))
    sim.cancel(sim.schedule(10, callback("cancelled-heap")))
    sim.cancel(sim.call_soon(callback("cancelled-bucket")))
    sim.call_soon(callback("now"))
    sim.schedule(40, callback("late"))
    sim.schedule(90, callback("last"))
    sim.run(until=20)
    assert sim.now == 20 and len(ran) == 4
    sim.run(until=40)
    assert len(ran) == 5
    sim.run()
    assert sim.now == 90
    assert bucket.handed_out == ran and len(ran) == 6
    assert sim.pending_events == 0


def test_run_until_event_stops_right_after_the_trigger():
    sim = Simulator()
    done = sim.event("done")
    seen = []
    sim.schedule(10, lambda _: seen.append("before"))
    sim.schedule(10, lambda _: (seen.append("trigger"), done.succeed()))
    sim.schedule(10, lambda _: seen.append("same cycle"))
    sim.schedule(20, lambda _: seen.append("later"))
    sim.run(until_event=done)
    assert seen == ["before", "trigger"] and sim.now == 10
    assert sim.pending_events == 2  # the same-cycle callback stays queued
    sim.run(until_event=done)  # already triggered: runs nothing
    assert seen == ["before", "trigger"]
    sim.run()
    assert seen == ["before", "trigger", "same cycle", "later"]
