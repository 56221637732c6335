"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import EventBudgetExceeded, SimulationError
from repro.sim import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_schedule_from_within_event():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.now))
        sim.schedule(0.5, second)

    def second():
        seen.append(("second", sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [("first", 1.0), ("second", 1.5)]


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_includes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    assert handle.cancelled
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_post_many_places_each_copy():
    sim = Simulator()
    log = []

    def record(key, tag):
        log.append((sim.now, key, tag))

    sim.run(until=1.0)
    sim.post(2.0, record, ("old", "post"))
    # 2.0 joins the existing bucket, 1.0 (= now) opens one, the two 3.0
    # copies share one cursor; a lone later copy becomes a plain bucket.
    sim.post_many(record, [2.0, 3.0, 1.0, 3.0], ["a", "b", "c", "d"], ("many",))
    sim.post_many(record, [1.0, 5.0], ["e", "f"], ("many",))
    assert sim._fan_seq == 1 and sim.pending_events == 7
    sim.run()
    assert log == [
        (1.0, "c", "many"), (1.0, "e", "many"), (2.0, "old", "post"),
        (2.0, "a", "many"), (3.0, "b", "many"), (3.0, "d", "many"),
        (5.0, "f", "many"),
    ]
    with pytest.raises(SimulationError):
        sim.post_many(record, [6.0, 4.5], ["x", "y"], ("many",))


def test_stop_halts_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # After stop, the second event is still pending and runs on the next run().
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 2]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.1, loop)

    sim.schedule(0.1, loop)
    with pytest.raises(EventBudgetExceeded):
        sim.run(max_events=100)
    assert issubclass(EventBudgetExceeded, SimulationError)

    # The fan-out cursor path has its own valve site.
    fan = Simulator()
    fan.post_many(lambda key: None, [1.0, 2.0, 3.0], [0, 1, 2], ())
    with pytest.raises(EventBudgetExceeded):
        fan.run(max_events=1)


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_advance_clock_with_no_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0
