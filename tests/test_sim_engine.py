"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator
from tests.conftest import schedule_at_front


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, order.append, "c")
    sim.schedule(10.0, order.append, "a")
    sim.schedule(20.0, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(5.0, order.append, label)
    sim.run_until_idle()
    assert order == list("abcde")


def test_zero_delay_event_runs_after_current_same_time_events():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "child")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run_until_idle()
    assert order == ["first", "second", "child"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, fired.append, True)
    sim.cancel(event)
    sim.run_until_idle()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.run_until_idle() == 0


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, 1)
    sim.schedule(15.0, seen.append, 2)
    ran = sim.run(until_us=10.0)
    assert ran == 1
    assert seen == [1]
    assert sim.now == 10.0
    sim.run_until_idle()
    assert seen == [1, 2]


def test_run_max_events():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending == 7


def test_callback_scheduling_during_run():
    sim = Simulator()
    times = []

    def chain(depth: int):
        times.append(sim.now)
        if depth > 0:
            sim.schedule(2.0, chain, depth - 1)

    sim.schedule(1.0, chain, 3)
    sim.run_until_idle()
    assert times == [1.0, 3.0, 5.0, 7.0]


def test_events_run_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert sim.events_run == 4


def test_pending_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    sim.cancel(drop)
    assert sim.pending == 1
    assert keep.alive


def test_pending_is_counter_based_and_exact():
    # pending is O(1) (a live counter), so it must stay exact through any
    # interleaving of schedule / cancel / double-cancel / run
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert sim.pending == 6
    sim.cancel(events[0])
    sim.cancel(events[0])  # idempotent: must not double-decrement
    assert sim.pending == 5
    sim.run(max_events=2)
    assert sim.pending == 3
    sim.cancel(events[3])
    assert sim.pending == 2
    sim.run_until_idle()
    assert sim.pending == 0
    sim.cancel(events[5])  # cancelling an already-run event is a no-op
    assert sim.pending == 0


def test_reschedule_reuses_one_event_object():
    from repro.sim.engine import Event

    sim = Simulator()
    fired = []
    event = Event(0.0, -1, fired.append, ("tick",))
    event.alive = False
    sim.reschedule(event, 5.0)
    assert sim.pending == 1
    sim.run_until_idle()
    assert fired == ["tick"]
    assert sim.now == 5.0
    sim.reschedule(event, 7.0)  # same object, re-armed
    sim.run_until_idle()
    assert fired == ["tick", "tick"]
    assert sim.now == 7.0
    assert sim.pending == 0


def test_reschedule_into_past_rejected():
    from repro.sim.engine import Event

    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    event = Event(0.0, -1, lambda: None, ())
    with pytest.raises(SimulationError):
        sim.reschedule(event, 5.0)


# -- same-instant ordering properties ------------------------------------
#
# These properties pin the run loop's ordering contract: execution follows
# exact (time, seq) order across all three sequencing lanes — normal
# schedule(), the front lane (reschedule_at_front, through the
# schedule_at_front test helper), and reserved sequence numbers armed later
# via reschedule(seq=...).


def _random_program(seed, drain):
    """Build one simulator with a randomized same-instant-heavy schedule
    and return the observed execution order as (time, label) pairs."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    order = []
    times = [float(rng.randrange(0, 6)) for _ in range(40)]

    expected_rank = {}
    for i, time_us in enumerate(times):
        label = f"e{i}"
        lane = rng.randrange(3)
        if lane == 0:
            event = sim.schedule_at(time_us, order.append, label)
        elif lane == 1:
            event = schedule_at_front(sim, time_us, order.append, label)
        else:
            from repro.sim.engine import Event

            seq = sim.reserve_seq()
            event = Event(0.0, 0, order.append, (label,))
            event.alive = False
            sim.reschedule(event, time_us, seq=seq)
        expected_rank[label] = (event.time, event.seq)
    drain(sim)
    return order, expected_rank, sim


def _expected(order, expected_rank):
    return sorted(order, key=expected_rank.__getitem__)


@pytest.mark.parametrize("seed", range(12))
def test_same_instant_order_is_time_seq_across_all_lanes(seed):
    order, rank, _ = _random_program(seed, lambda sim: sim.run_until_idle())
    assert order == _expected(order, rank)


@pytest.mark.parametrize("seed", range(12))
def test_hot_run_loop_matches_step_loop(seed):
    hot, _, _ = _random_program(seed, lambda sim: sim.run_until_idle())

    def step_all(sim):
        while sim.step():
            pass

    stepped, _, _ = _random_program(seed, step_all)
    assert hot == stepped


@pytest.mark.parametrize("seed", range(12))
def test_hot_run_loop_matches_bounded_run(seed):
    hot, _, _ = _random_program(seed, lambda sim: sim.run_until_idle())
    bounded, _, _ = _random_program(seed, lambda sim: sim.run(until_us=1e9))
    assert hot == bounded


def test_micro_batch_drain_sees_same_instant_children():
    # a callback scheduling back into the running instant must run within
    # the same drain, after every earlier same-time event (exact seq order)
    sim = Simulator()
    order = []

    def parent(label):
        order.append(label)
        if label == "p0":
            sim.schedule(0.0, order.append, "child-of-p0")

    sim.schedule(5.0, parent, "p0")
    sim.schedule(5.0, parent, "p1")
    sim.schedule(5.0, parent, "p2")
    sim.run_until_idle()
    assert order == ["p0", "p1", "p2", "child-of-p0"]
    assert sim.now == 5.0


def test_front_lane_beats_normal_lane_scheduled_earlier():
    sim = Simulator()
    order = []
    sim.schedule_at(3.0, order.append, "normal-first-scheduled")
    schedule_at_front(sim, 3.0, order.append, "front-last-scheduled")
    sim.run_until_idle()
    assert order == ["front-last-scheduled", "normal-first-scheduled"]


def test_reserved_seq_beats_later_normal_seq_at_same_time():
    from repro.sim.engine import Event

    sim = Simulator()
    order = []
    reserved = sim.reserve_seq()          # drawn before the schedule below
    sim.schedule_at(2.0, order.append, "drawn-second")
    event = Event(0.0, 0, order.append, ("drawn-first-armed-last",))
    event.alive = False
    sim.reschedule(event, 2.0, seq=reserved)
    sim.run_until_idle()
    assert order == ["drawn-first-armed-last", "drawn-second"]


def test_now_seq_tracks_running_callback():
    sim = Simulator()
    seen = []

    def probe():
        seen.append((sim.now, sim.now_seq))

    e1 = sim.schedule_at(1.0, probe)
    e2 = sim.schedule_at(1.0, probe)
    e3 = schedule_at_front(sim, 1.0, probe)
    sim.run_until_idle()
    assert seen == [(1.0, e3.seq), (1.0, e1.seq), (1.0, e2.seq)]


def test_cancelled_events_skipped_inside_micro_batch():
    sim = Simulator()
    order = []
    victim = sim.schedule_at(4.0, order.append, "victim")

    def killer():
        order.append("killer")
        sim.cancel(victim)

    sim.schedule_at(4.0, order.append, "a")
    # killer was scheduled after 'a' but before 'victim'? No: victim drew
    # the first seq, so cancel must happen from a front-lane event that
    # runs before it within the same instant.
    schedule_at_front(sim, 4.0, killer)
    sim.run_until_idle()
    assert order == ["killer", "a"]
    assert sim.pending == 0
