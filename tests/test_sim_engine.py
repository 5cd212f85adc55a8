"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.sim.engine import Event, SimulationError, Simulator
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


def test_run_refuses_nan_bound():
    """NaN compares false against every time, so a ``time > until_us``
    stop never fired and the whole queue ran."""
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, 1)
    sim.schedule(50.0, seen.append, 2)
    with pytest.raises(SimulationError, match="NaN"):
        sim.run(until_us=float("nan"))
    assert seen == [] and sim.now == 0.0 and sim.events_run == 0
    assert sim.run_until_idle() == 2


def _counted_program():
    """Callbacks that log ``events_run`` around one ticking event (pops
    at 1, 3 and 5, callback at 7) and one cancelled event."""
    sim = Simulator()
    log = []

    def probe(label):
        log.append((label, sim.events_run))

    for time_us, label in ((0.5, "a"), (2.0, "b"), (4.0, "c"),
                           (6.0, "d"), (8.0, "e")):
        sim.schedule_at(time_us, probe, label)
    sim.cancel(sim.schedule_at(3.0, probe, "cancelled"))
    event = Event(0.0, 0, probe, ("ticked",))
    event.alive = False
    event.ticks = 3
    event.period = 2.0
    sim.reschedule(event, 1.0)
    return sim, log


@pytest.mark.parametrize("bounds", [(None,), (100.0,), (2.0, 4.5, 6.0, 100.0)],
                         ids=["run", "run_until", "stop_between_ticks"])
def test_events_run_is_exact_inside_callbacks(bounds):
    sim, log = _counted_program()
    stops = []
    for until_us in bounds:
        ran = sim.run(until_us)
        stops.append((ran, sim.events_run))
    # each callback counts every live pop so far, ticks and itself included
    assert log == [("a", 1), ("b", 3), ("c", 5), ("d", 7),
                   ("ticked", 8), ("e", 9)]
    assert sum(ran for ran, _ in stops) == sim.events_run == 9
    if len(bounds) > 1:
        # 2.0 and 4.5 stop between ticks, 6.0 on a callback instant
        assert stops == [(3, 3), (2, 5), (2, 7), (2, 9)]


def test_pending_excludes_cancelled():
    sim = Simulator()
    ran = []
    keep = sim.schedule(1.0, ran.append, "keep")
    drop = sim.schedule(2.0, ran.append, "drop")
    sim.cancel(drop)
    assert keep.alive and not drop.alive
    assert sim.run_until_idle() == 1
    assert ran == ["keep"]


def test_pending_is_counter_based_and_exact():
    # the events_run counter and run()'s return values stay exact through
    # any interleaving of schedule / cancel / double-cancel / bounded run:
    # cancelled events neither run nor count
    sim = Simulator()
    ran = []
    events = [sim.schedule(float(i + 1), ran.append, i) for i in range(6)]
    sim.cancel(events[0])
    sim.cancel(events[0])  # idempotent
    assert events[1].alive
    assert sim.run(until_us=3.0) == 2
    sim.cancel(events[3])
    assert sim.run_until_idle() == 2
    sim.cancel(events[5])  # cancelling an already-run event is a no-op
    assert sim.run_until_idle() == 0
    assert ran == [1, 2, 4, 5]
    assert sim.events_run == 4


def test_reschedule_reuses_one_event_object():
    from repro.sim.engine import Event

    sim = Simulator()
    fired = []
    event = Event(0.0, -1, fired.append, ("tick",))
    event.alive = False
    sim.reschedule(event, 5.0)
    assert event.alive
    sim.run_until_idle()
    assert fired == ["tick"]
    assert sim.now == 5.0
    sim.reschedule(event, 7.0)  # same object, re-armed
    sim.run_until_idle()
    assert fired == ["tick", "tick"]
    assert sim.now == 7.0
    assert not event.alive


def test_reschedule_into_past_rejected():
    from repro.sim.engine import Event

    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    event = Event(0.0, -1, lambda: None, ())
    with pytest.raises(SimulationError):
        sim.reschedule(event, 5.0)


@pytest.mark.parametrize("arm", [
    lambda sim, t: sim.schedule(t, lambda: None),
    lambda sim, t: sim.schedule_at(t, lambda: None),
    lambda sim, t: sim.reschedule(Event(0.0, -1, lambda: None, ()), t),
    lambda sim, t: schedule_at_front(sim, t, lambda: None),
], ids=["schedule", "schedule_at", "reschedule", "reschedule_at_front"])
def test_nan_time_rejected(arm):
    """NaN compares false against everything, so a ``time < now`` guard let
    it through and the clock became NaN.  The message names NaN, not a
    time in the past."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="NaN"):
        arm(sim, float("nan"))
    sim.run_until_idle()
    assert sim.now == 0.0


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
        # one instant per call: stop at the next queued timestamp
        while sim._heap:
            sim.run(until_us=sim._heap[0][0])

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
    assert sim.events_run == 2


def test_event_lt_breaks_full_heap_ties():
    # SerialResource cancels its armed event (the entry stays in the heap)
    # and may later re-arm a fresh one at the same deferred reservation's
    # unchanged projection: two heap entries then share (time, seq), so
    # the tuple compare falls through to Event.__lt__
    from repro.sim.engine import Event
    from repro.sim.resource import SerialResource

    calls = []
    compare = Event.__lt__

    def counted(a, b):
        calls.append((a.time, a.seq, b.time, b.seq))
        return compare(a, b)

    Event.__lt__ = counted
    try:
        sim = Simulator()
        link = SerialResource(sim, 250.0)
        done = []
        link.transfer_after(20.0, 4096, lambda t: done.append(("big", t)))
        for i in range(4):
            sim.schedule(1.0 + i, link.transfer, 512,
                         lambda t, i=i: done.append((i, t)))
        sim.run_until_idle()
    finally:
        Event.__lt__ = compare
    assert calls and all(a[:2] == a[2:] for a in calls)
    assert [label for label, _t in done] == [0, 1, 2, 3, "big"]
    assert [t for _label, t in done] == sorted(t for _label, t in done)
    # the comparison itself: (time, seq) order, equal stamps not less
    early, late = Event(1.0, 5, print, ()), Event(2.0, 0, print, ())
    assert early < late and not late < early
    twin = Event(1.0, 5, print, ())
    assert not early < twin and not twin < early


# -- ticking events ---------------------------------------------------------
#
# A ticking event (ticks = k, period = p) must be indistinguishable from one
# event whose callback re-arms it k times with reschedule(now + p): the same
# order against same-instant events of every lane, the same seq draws, the
# same events_run, and the same now/now_seq wherever a bounded run stops.

_TICK_START, _TICK_PERIOD, _TICKS = 1.0, 2.5, 4


def _tick_program(seed, ticking, drain):
    """A randomized same-instant-heavy schedule around one event that pops
    ``_TICKS + 1`` times, either ticking (*ticking*) or re-armed by its own
    callback; returns everything observable about the run."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    log = []
    instants = [_TICK_START]
    for _ in range(_TICKS):
        instants.append(instants[-1] + _TICK_PERIOD)

    def probe(label):
        log.append((label, sim.now, sim.now_seq))
        if label.endswith("!"):
            # a zero-delay child draws its seq after any tick before it
            sim.schedule(0.0, probe, label[:-1] + "-child")

    left = [_TICKS]

    def step():
        # the reference: one callback per pop, re-arming itself
        if left[0]:
            left[0] -= 1
            sim.reschedule(event, sim.now + _TICK_PERIOD)
            return
        log.append(("done", sim.now, sim.now_seq))

    def done():
        log.append(("done", sim.now, sim.now_seq))

    event = Event(0.0, 0, done if ticking else step, ())
    event.alive = False
    armed = rng.randrange(20)
    for i in range(20):
        if i == armed:
            if ticking:
                event.ticks = _TICKS
                event.period = _TICK_PERIOD
            sim.reschedule(event, _TICK_START)
        time_us = rng.choice(instants + [0.5, 4.0, 7.25])
        label = f"e{i}" + ("!" if rng.random() < 0.3 else "")
        if rng.randrange(2):
            sim.schedule_at(time_us, probe, label)
        else:
            schedule_at_front(sim, time_us, probe, label)
    stops = drain(sim)
    return log, stops, sim.events_run, (event.time, event.seq, event.ticks)


def _run_all(sim):
    sim.run_until_idle()
    return [(sim.now, sim.now_seq)]


def _run_stepped(sim):
    # stop between ticks (2.0 lies inside the first period, 5.0 and 7.0
    # inside later ones), on a tick instant (6.0) and after everything
    stops = []
    for until_us in (2.0, 5.0, 6.0, 7.0, 1e9):
        ran = sim.run(until_us=until_us)
        stops.append((until_us, ran, sim.now, sim.now_seq, sim.events_run,
                      sorted((t, s) for t, s, e in sim._heap if e.alive)))
    return stops


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("drain", [_run_all, _run_stepped],
                         ids=["run", "run_until"])
def test_ticking_event_matches_rearmed_event(seed, drain):
    ticking = _tick_program(seed, True, drain)
    reference = _tick_program(seed, False, drain)
    assert ticking == reference
    log, _stops, events_run, (_t, _s, ticks) = ticking
    done_at = _TICK_START
    for _ in range(_TICKS):
        done_at += _TICK_PERIOD
    assert [entry[1] for entry in log if entry[0] == "done"] == [done_at]
    assert ticks == 0
    # every tick counts as an event run
    assert events_run == len(log) + _TICKS


def test_ticking_event_runs_callback_once_at_last_tick():
    sim = Simulator()
    seen = []
    event = Event(0.0, 0, lambda: seen.append((sim.now, sim.events_run)), ())
    event.alive = False
    event.ticks = 3
    event.period = 2.0
    sim.reschedule(event, 1.0)
    assert sim.run_until_idle() == 4
    assert seen == [(7.0, 4)]  # its three ticks and itself
    assert sim.events_run == 4
    assert not event.alive and event.ticks == 0


def test_cancelled_ticking_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = Event(0.0, 0, fired.append, ("fired",))
    event.alive = False
    event.ticks = 3
    event.period = 1.0
    sim.reschedule(event, 1.0)
    # the front lane wins the tie at 2.0: the cancel lands before that tick
    schedule_at_front(sim, 2.0, sim.cancel, event)
    assert sim.run_until_idle() == 2  # the tick at 1.0 and the cancel
    assert fired == []
    assert event.ticks == 0
    # re-armed later, it is an ordinary one-shot event again
    sim.reschedule(event, 10.0)
    assert sim.run_until_idle() == 1
    assert fired == ["fired"]
