"""A small, fast discrete-event simulator.

Design notes
------------
* The event queue is a binary heap of ``(time, seq, event)`` tuples.  Tuples
  compare in C (no Python ``__lt__`` dispatch per sift), and ``seq`` makes
  ordering deterministic when two events share a timestamp, which matters
  for reproducible experiments.
* Cancellation is lazy: :meth:`Simulator.cancel` flips the ``alive`` flag and
  the event is discarded when popped.  This keeps ``schedule``/``cancel``
  O(log n) without heap surgery.
* One loop, :meth:`Simulator.run`, serves drained and bounded runs alike:
  no bound is an infinite one, and a live event past the bound is pushed
  back unchanged and ends the run.
* Callbacks run with the simulator clock already advanced to the event time,
  so a callback that calls :meth:`Simulator.schedule` with delay 0 runs later
  in the same instant (after all earlier same-time events).  The loop counts
  each event in :attr:`Simulator.events_run` before running it, so a
  callback reading the counter sees itself and everything before it.
* Hot callers (the per-element FIFO drain in
  :class:`repro.flash.element.FlashElement`) allocate one :class:`Event` up
  front and re-arm it with :meth:`Simulator.reschedule`, so steady-state
  simulation pushes no new Event objects at all.
* An event can *tick*: with ``ticks = k`` and ``period = p`` set before it
  is armed, the loop pops it k times without running its callback, each
  time re-pushing it ``p`` later with a fresh normal-lane seq, and runs the
  callback on the (k+1)-th pop.  Each tick stores ``now``/``now_seq``,
  draws its seq at the same point and counts in :attr:`events_run` exactly
  as a callback that re-armed the event with :meth:`reschedule` would, so
  k+1 ticking pops are indistinguishable from k+1 re-armed events except
  that no Python frame runs between them.  The flash element arms one
  ticking drain per copy-back run instead of re-arming per page.
* A second, negative sequence lane (:meth:`Simulator.reschedule_at_front`)
  exists for *external stimulus*: events that must win every same-timestamp
  tie against simulation-internal events, exactly as if they had all been
  scheduled before the run started.  The streaming trace feeder keeps one
  event re-armed on it, so lazily-fed submissions order identically to
  scheduling the whole trace up front.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf, isnan
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

#: base of the front-lane sequence counter: far below 0 so every front-lane
#: event outranks every normal event at the same timestamp, while front-lane
#: events keep their own scheduling order among themselves
_FRONT_SEQ_BASE = -(2 ** 62)


class SimulationError(RuntimeError):
    """Raised for programming errors against the event loop API."""


class Event:
    """Handle for a scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and can be passed to
    :meth:`Simulator.cancel`.  The heap orders ``(time, seq, event)``
    tuples, and two entries can share ``(time, seq)``: a cancelled entry
    stays in the heap, and :class:`repro.sim.resource.SerialResource` may
    re-arm a fresh event at the same deferred reservation's unchanged
    projection.  The tuple compare then falls through to this method, which
    finds the two equal (the cancelled one is skipped when popped).

    ``ticks`` and ``period`` make the event tick (see the module notes):
    the caller sets them before arming, and each tick the loop takes
    counts ``ticks`` down, so a fired event has ``ticks == 0``.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive", "ticks", "period")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True
        #: pops left that re-arm the event ``period`` later instead of
        #: running ``fn``
        self.ticks = 0
        self.period = 0.0

    def __lt__(self, other: "Event") -> bool:
        # exact stamp compare is the heap's ordering contract itself
        if self.time != other.time:  # repro: allow[float-time-eq]
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "cancelled"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f}us #{self.seq} {name} {state}>"


def _refused_time(time_us: float, now: float) -> SimulationError:
    """The error for an arm time the ``time_us >= now`` guard refused:
    NaN fails that comparison too, and is named as such."""
    if isnan(time_us):
        return SimulationError("cannot schedule at a NaN time")
    return SimulationError(
        f"cannot schedule at {time_us} before current time {now}")


class Simulator:
    """Single-threaded discrete-event loop with a float-microsecond clock."""

    __slots__ = ("now", "now_seq", "_heap", "reserve_seq",
                 "_next_front_seq", "_events_run", "__weakref__")

    #: Claim the next normal-lane sequence number without scheduling, for
    #: callers that decide *now* where an occurrence ranks among
    #: same-timestamp events but arm it later through :meth:`reschedule`
    #: (:class:`repro.sim.resource.SerialResource`).  The reserved seq
    #: orders exactly as a fresh event scheduled at reservation time
    #: would: the heap needs only that every ``(time, seq)`` pushed is
    #: still in the future.  It *is* the normal lane's counter, the C-level
    #: ``__next__`` of an :func:`itertools.count`, so it runs no Python frame.
    reserve_seq: Callable[[], int]

    def __init__(self) -> None:
        self.now: float = 0.0
        #: sequence number of the callback currently executing.  Together
        #: with :attr:`now`, this is the loop's exact position in the global
        #: ``(time, seq)`` order — consumers that replay deferred work in
        #: merged order (:class:`repro.sim.resource.SerialResource`'s fused
        #: reservations) compare against it to decide what logically
        #: precedes the running callback.  Outside a callback it holds the
        #: last executed rank (before any event runs: the front-lane base,
        #: which nothing precedes).
        self.now_seq: int = _FRONT_SEQ_BASE
        self._heap: list[tuple[float, int, Event]] = []
        self.reserve_seq = count().__next__
        #: the front lane's counter (see :meth:`reschedule_at_front`)
        self._next_front_seq: Callable[[], int] = count(_FRONT_SEQ_BASE).__next__
        self._events_run: int = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay_us* after the current time."""
        if not delay_us >= 0:  # also refuses NaN
            raise SimulationError(
                "cannot schedule at a NaN delay" if isnan(delay_us)
                else f"cannot schedule into the past (delay={delay_us})")
        time_us = self.now + delay_us
        seq = self.reserve_seq()
        event = Event(time_us, seq, fn, args)
        heappush(self._heap, (time_us, seq, event))
        return event

    def schedule_at(self, time_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the absolute simulated time *time_us*."""
        if not time_us >= self.now:  # also refuses NaN
            raise _refused_time(time_us, self.now)
        seq = self.reserve_seq()
        event = Event(time_us, seq, fn, args)
        heappush(self._heap, (time_us, seq, event))
        return event

    def reschedule_at_front(self, event: Event, time_us: float) -> None:
        """Arm a previously fired (or never armed) event on the front lane.

        The front-lane counterpart of :meth:`reschedule`: the event draws a
        fresh sequence number from a separate, deeply negative counter, so
        it (a) outranks every same-time event scheduled through
        :meth:`schedule`/:meth:`schedule_at`/:meth:`reschedule`, and (b)
        keeps scheduling order among front-lane events.  This models
        external stimulus — trace records arriving from the host — which
        must order exactly as if the whole trace had been scheduled before
        the simulation started (the streaming replay contract).  The
        streaming trace feeder keeps one such event armed at the next
        record's timestamp.  The caller must guarantee the event is not
        currently in the heap.
        """
        if not time_us >= self.now:  # also refuses NaN
            raise _refused_time(time_us, self.now)
        seq = self._next_front_seq()
        event.time = time_us
        event.seq = seq
        event.alive = True
        heappush(self._heap, (time_us, seq, event))

    def reschedule(self, event: Event, time_us: float, seq: Optional[int] = None) -> None:
        """Re-arm a previously fired (or never armed) event at *time_us*.

        Fast path for callers that reuse one Event object instead of
        allocating per occurrence.  The caller must guarantee the event is
        not currently in the heap (it already fired or was never scheduled);
        re-arming a still-queued event would corrupt completion order.

        ``seq`` may be a value obtained earlier from :meth:`reserve_seq`;
        by default a fresh sequence number is drawn at re-arm time.
        """
        if not time_us >= self.now:  # also refuses NaN
            raise _refused_time(time_us, self.now)
        if seq is None:
            seq = self.reserve_seq()
        event.time = time_us
        event.seq = seq
        event.alive = True
        heappush(self._heap, (time_us, seq, event))

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (and any ticks it has left); cancelling
        twice or after it ran is a no-op."""
        event.alive = False
        event.ticks = 0

    # -- running ----------------------------------------------------------

    def run(self, until_us: Optional[float] = None) -> int:
        """Run events until the queue drains or the next live event lies
        past *until_us* (``None``: no bound).  Returns the number of
        events run, ticks included.

        A bounded stop leaves that next event queued at its own
        ``(time, seq)`` and advances the clock to *until_us* if it is
        behind it.
        """
        bound = inf if until_us is None else until_us
        if isnan(bound):
            raise SimulationError("cannot run until a NaN time")
        heap = self._heap
        reserve_seq = self.reserve_seq
        first = self._events_run
        while heap:
            time_us, seq, event = heappop(heap)
            if not event.alive:
                continue
            if time_us > bound:
                heappush(heap, (time_us, seq, event))
                break
            self.now = time_us
            self.now_seq = seq
            self._events_run += 1
            if event.ticks:
                # a tick: re-arm as the callback's reschedule would
                event.ticks -= 1
                time_us += event.period
                seq = reserve_seq()
                event.time = time_us
                event.seq = seq
                heappush(heap, (time_us, seq, event))
                continue
            event.alive = False
            event.fn(*event.args)
        if until_us is not None and self.now < until_us:
            self.now = until_us
        return self._events_run - first

    def run_until_idle(self) -> int:
        """Run until no events remain.  Convenience wrapper over :meth:`run`."""
        return self.run()

    # -- introspection ------------------------------------------------------

    @property
    def events_run(self) -> int:
        """Total events run since construction: callbacks and ticks.

        The loop counts each event before it runs, so a callback reading
        this counts itself and every event before it, the ``run()`` in
        progress included."""
        return self._events_run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f}us queued={len(self._heap)}>"
