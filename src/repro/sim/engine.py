"""A small, fast discrete-event simulator.

Design notes
------------
* The event queue is a binary heap of ``(time, seq, event)`` tuples.  Tuples
  compare in C (no Python ``__lt__`` dispatch per sift), and ``seq`` makes
  ordering deterministic when two events share a timestamp, which matters
  for reproducible experiments.
* Cancellation is lazy: :meth:`Simulator.cancel` flips the ``alive`` flag and
  the event is discarded when popped.  This keeps ``schedule``/``cancel``
  O(log n) without heap surgery.  A live-event counter is maintained on
  push/cancel/pop so :attr:`Simulator.pending` is O(1).
* Callbacks run with the simulator clock already advanced to the event time,
  so a callback that calls :meth:`Simulator.schedule` with delay 0 runs later
  in the same instant (after all earlier same-time events).
* Hot callers (the per-element FIFO drain in
  :class:`repro.flash.element.FlashElement`) allocate one :class:`Event` up
  front and re-arm it with :meth:`Simulator.reschedule`, so steady-state
  simulation pushes no new Event objects at all.
* A second, negative sequence lane (:meth:`Simulator.reschedule_at_front`)
  exists for *external stimulus*: events that must win every same-timestamp
  tie against simulation-internal events, exactly as if they had all been
  scheduled before the run started.  The streaming trace feeder keeps one
  event re-armed on it, so lazily-fed submissions order identically to
  scheduling the whole trace up front.
"""

from __future__ import annotations

import heapq
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
    :meth:`Simulator.cancel`.  The heap orders entries by ``(time, seq)``;
    the comparison here only backs sorting of bare Event lists in tests and
    debugging.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True

    def __lt__(self, other: "Event") -> bool:
        # exact stamp compare is the heap's ordering contract itself
        if self.time != other.time:  # repro: allow[float-time-eq]
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "cancelled"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f}us #{self.seq} {name} {state}>"


class Simulator:
    """Single-threaded discrete-event loop with a float-microsecond clock."""

    __slots__ = ("now", "now_seq", "_heap", "_seq", "_front_seq",
                 "_events_run", "_alive", "__weakref__")

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
        self._seq: int = 0
        self._front_seq: int = _FRONT_SEQ_BASE
        self._events_run: int = 0
        self._alive: int = 0

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay_us* after the current time."""
        if delay_us < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_us})")
        return self.schedule_at(self.now + delay_us, fn, *args)

    def schedule_at(self, time_us: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the absolute simulated time *time_us*."""
        if time_us < self.now:
            raise SimulationError(
                f"cannot schedule at {time_us} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_us, seq, fn, args)
        heapq.heappush(self._heap, (time_us, seq, event))
        self._alive += 1
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
        if time_us < self.now:
            raise SimulationError(
                f"cannot schedule at {time_us} before current time {self.now}"
            )
        seq = self._front_seq
        self._front_seq = seq + 1
        event.time = time_us
        event.seq = seq
        event.alive = True
        heapq.heappush(self._heap, (time_us, seq, event))
        self._alive += 1

    def reserve_seq(self) -> int:
        """Claim the next normal-lane sequence number without scheduling.

        For callers that decide *now* where an occurrence ranks among
        same-timestamp events but arm the heap entry later through
        :meth:`reschedule` (e.g. :class:`repro.sim.resource.SerialResource`
        keeps one armed event over a FIFO of pending completions).  Using
        the reserved seq at arm time reproduces exactly the ordering that
        scheduling a fresh event at reservation time would have produced —
        the heap does not require monotone seq insertion, only that every
        ``(time, seq)`` pushed is still in the future, which holds because
        a reserved occurrence's time can only be ahead of the clock.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def reschedule(self, event: Event, time_us: float, seq: Optional[int] = None) -> None:
        """Re-arm a previously fired (or never armed) event at *time_us*.

        Fast path for callers that reuse one Event object instead of
        allocating per occurrence.  The caller must guarantee the event is
        not currently in the heap (it already fired or was never scheduled);
        re-arming a still-queued event would corrupt completion order.

        ``seq`` may be a value obtained earlier from :meth:`reserve_seq`;
        by default a fresh sequence number is drawn at re-arm time.
        """
        if time_us < self.now:
            raise SimulationError(
                f"cannot schedule at {time_us} before current time {self.now}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        event.time = time_us
        event.seq = seq
        event.alive = True
        heapq.heappush(self._heap, (time_us, seq, event))
        self._alive += 1

    def cancel(self, event: Event) -> None:
        """Cancel a pending event; cancelling twice or after it ran is a no-op."""
        if event.alive:
            event.alive = False
            self._alive -= 1

    # -- running ----------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time_us, seq, event = heapq.heappop(heap)
            if not event.alive:
                continue
            self.now = time_us
            event.alive = False
            self._alive -= 1
            self._events_run += 1
            self.now_seq = seq
            event.fn(*event.args)
            return True
        return False

    def run(self, until_us: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, the clock passes *until_us*, or
        *max_events* callbacks have run.  Returns the number of callbacks run.

        When stopping on *until_us*, the clock is advanced to exactly
        *until_us* and events scheduled later stay queued.
        """
        ran = 0
        heap = self._heap
        pop = heapq.heappop
        if until_us is None and max_events is None:
            # hot path: drain everything, no bound checks per iteration
            while heap:
                time_us, seq, event = pop(heap)
                if not event.alive:
                    continue
                self.now = time_us
                event.alive = False
                self._alive -= 1
                self.now_seq = seq
                event.fn(*event.args)
                ran += 1
            self._events_run += ran
            return ran
        while heap:
            if max_events is not None and ran >= max_events:
                break
            time_us, seq, event = heap[0]
            if not event.alive:
                pop(heap)
                continue
            if until_us is not None and time_us > until_us:
                break
            pop(heap)
            self.now = time_us
            event.alive = False
            self._alive -= 1
            self.now_seq = seq
            event.fn(*event.args)
            ran += 1
        if until_us is not None and self.now < until_us:
            self.now = until_us
        self._events_run += ran
        return ran

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run until no events remain.  Convenience wrapper over :meth:`run`."""
        return self.run(until_us=None, max_events=max_events)

    # -- introspection ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1): a live
        counter is maintained on push/cancel/pop."""
        return self._alive

    @property
    def events_run(self) -> int:
        """Total callbacks executed since construction."""
        return self._events_run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f}us queued={len(self._heap)}>"
