"""Serially-shared resources (buses, links).

A :class:`SerialResource` models a link that transfers one payload at a
time: a transfer requested while the link is busy starts when the link
frees.  Used for the SSD's host interface and the shared gang bus.

Batched completion delivery
---------------------------
The seed implementation scheduled one fresh heap event per transfer, so a
busy link kept one queued event per outstanding completion and a long
sequential stream allocated an :class:`~repro.sim.engine.Event` per
request.  Completions are now *batched over the busy interval*: pending
completions sit in a plain FIFO (finish times are monotone on a serial
link) and the link keeps exactly **one** armed event — at the head
completion's finish time — re-armed from entry to entry as the interval
drains.  Per transfer the heap sees the same single push it always did,
but the push reuses one Event object (no allocation) and the heap never
holds more than one link entry regardless of backlog depth.

Delivery order is bit-identical to the per-event scheme: each transfer
reserves its sequence number at request time
(:meth:`~repro.sim.engine.Simulator.reserve_seq`) and the re-arm replays
that reserved ``(finish, seq)`` pair, so ties against unrelated
same-timestamp events resolve exactly as if a fresh event had been
scheduled when the transfer was requested.  Per-request completion times
are untouched — batching changes *how* the callback is carried to its
instant, never *when* the instant is.

Fused delayed reservations
--------------------------
:meth:`SerialResource.transfer_after` goes one step further and folds a
*fixed-delay prologue* (the SSD's controller-overhead hop) into the same
single armed event.  The caller used to schedule an event at ``now +
delay`` whose callback did nothing but call :meth:`transfer`; now the
reservation is recorded immediately — with its sequence number drawn at
call time, exactly where the prologue event would have drawn its own —
and *applied* (busy-interval arithmetic, accounting, pending-FIFO entry)
lazily, in global ``(time, seq)`` order, the first time the link state is
next consulted at or past the activation instant.  One scheduled event
then covers prologue + transfer.

Correctness hangs on two invariants:

* **Order-dependence only.**  Applying a deferred reservation needs only
  the link state produced by everything that logically precedes it:
  ``start = max(activate_at, busy_until)``.  The wall position of the
  clock when the application *runs* never enters the arithmetic, so late
  application is unobservable.
* **Projections never overshoot.**  While a reservation is deferred, the
  armed event sits at its *projected* delivery (computed from the busy
  interval so far).  ``busy_until`` only grows, so a projection is never
  later than the true delivery; a wake-up that arrives early applies the
  reservation, finds nothing due, and re-arms at the now-exact instant.

Catch-up order uses :attr:`repro.sim.engine.Simulator.now_seq`: a direct
:meth:`transfer` call applies every deferred reservation whose
``(activate_at, seq)`` precedes the currently-executing callback's
``(now, now_seq)`` before reading ``busy_until``, which reproduces the
exact interleaving the discrete prologue events would have produced.
"""

from __future__ import annotations

from collections import deque
from math import isnan
from typing import Callable, Deque, Tuple

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["SerialResource"]


class SerialResource:
    """FIFO-ordered serial resource characterized by a bandwidth."""

    __slots__ = ("sim", "_bytes_per_us", "busy_until", "bytes_transferred",
                 "busy_us", "_pending", "_deferred", "_event", "_armed",
                 "_reserve_seq", "_push")

    def __init__(self, sim: Simulator, mb_per_s: float) -> None:
        if mb_per_s <= 0:
            raise ValueError(f"bandwidth must be positive, got {mb_per_s}")
        self.sim = sim
        self._bytes_per_us = mb_per_s * 1024 * 1024 / 1_000_000.0
        self.busy_until = 0.0
        self.bytes_transferred = 0
        #: total simulated time the link has been (or is committed to be)
        #: transferring; queue wait is excluded, so utilization over a run
        #: is ``busy_us / elapsed``
        self.busy_us = 0.0
        #: completions awaiting delivery as (deliver_at, seq, then, finish),
        #: finish-time order (monotone by construction: each transfer starts
        #: no earlier than the last ends)
        self._pending: Deque[Tuple[float, int, Callable[[float], None], float]] = deque()
        #: fused reservations not yet applied, as (activate_at, seq, nbytes,
        #: then) in activation order; every entry here logically *follows*
        #: every entry in ``_pending`` (application happens in merged
        #: (time, seq) order, and applying moves an entry to ``_pending``)
        self._deferred: Deque[Tuple[float, int, int, Callable[[float], None]]] = deque()
        #: the one reusable heap event carrying the next delivery (or a
        #: deferred reservation's projected delivery)
        self._event = Event(0.0, 0, self._on_event, ())
        self._event.alive = False
        self._armed = False
        # prebound: transfer() runs once per host request
        self._reserve_seq = sim.reserve_seq
        self._push = self._pending.append

    def transfer(self, nbytes: int, then: Callable[[float], None]) -> float:
        """Queue a transfer; ``then(finish_time)`` fires when it completes.
        Returns the scheduled finish time."""
        sim = self.sim
        if self._deferred:
            self._apply_due(sim.now, sim.now_seq)
        now = sim.now
        start = now if now > self.busy_until else self.busy_until
        duration = nbytes / self._bytes_per_us
        finish = start + duration
        self.busy_until = finish
        self.bytes_transferred += nbytes
        self.busy_us += duration
        # reserve the completion's tie-break rank now; the armed event
        # replays it later (see module docstring).  ``deliver_at`` is
        # ``now + (finish - now)``, which the seed's delay-based schedule()
        # produced and which can differ from ``finish`` by one ULP —
        # preserved so clock stamps stay bit-identical to the seed.
        deliver_at = now + (finish - now)
        seq = self._reserve_seq()
        self._push((deliver_at, seq, then, finish))
        if not self._armed:
            self._arm()
        elif len(self._pending) == 1:
            # the event is armed at a deferred reservation's projection;
            # this completion may come first.  (When it doesn't — the
            # projection is earlier than this delivery — the early wake-up
            # applies the reservation and re-arms; see _on_event.)
            ev = self._event
            at = deliver_at if deliver_at >= now else now
            # exact-rank tie-break against the armed event's own stamp
            if at < ev.time or (at == ev.time and seq < ev.seq):  # repro: allow[float-time-eq]
                # the in-heap entry cannot be retargeted (re-arming a
                # still-queued Event corrupts the heap); kill it and arm a
                # fresh one
                sim.cancel(ev)
                ev = Event(0.0, 0, self._on_event, ())
                ev.alive = False
                self._event = ev
                self._arm()
        return finish

    def transfer_after(self, delay_us: float, nbytes: int,
                       then: Callable[[float], None]) -> None:
        """Reserve a transfer that *activates* ``delay_us`` from now.

        Equivalent to scheduling ``lambda: self.transfer(nbytes, then)``
        after *delay_us* — same queueing position, same start/finish
        arithmetic, same delivery rank — but without that intermediate
        event: the reservation's sequence number is drawn here (where the
        prologue event would have drawn its own) and the busy-interval
        update is applied lazily in merged ``(time, seq)`` order.

        Activations must be non-decreasing per link (callers use a fixed
        per-device delay, so this holds naturally); mixing shrinking
        delays would need a sorted structure and is refused loudly.
        """
        if not delay_us >= 0:  # also refuses NaN
            raise SimulationError(
                "cannot activate at a NaN delay" if isnan(delay_us)
                else f"cannot activate in the past (delay={delay_us})")
        sim = self.sim
        activate_at = sim.now + delay_us
        deferred = self._deferred
        if deferred and activate_at < deferred[-1][0]:
            raise SimulationError(
                f"fused reservation activating at {activate_at} precedes "
                f"an earlier reservation at {deferred[-1][0]}; "
                "activations must be non-decreasing"
            )
        deferred.append((activate_at, self._reserve_seq(), nbytes, then))
        if not self._armed:
            self._arm()

    def _apply_due(self, limit_time: float, limit_seq: int) -> None:
        """Apply deferred reservations at or before ``(limit_time,
        limit_seq)`` in the global event order (inclusive: the armed
        event's own wake-up applies the reservation it was armed for)."""
        deferred = self._deferred
        push = self._push
        bytes_per_us = self._bytes_per_us
        while deferred:
            activate_at, seq, nbytes, then = deferred[0]
            # exact-rank cutoff: limit_time is a stored stamp, not arithmetic
            if activate_at > limit_time or (activate_at == limit_time  # repro: allow[float-time-eq]
                                            and seq > limit_seq):
                break
            deferred.popleft()
            busy = self.busy_until
            start = activate_at if activate_at > busy else busy
            duration = nbytes / bytes_per_us
            finish = start + duration
            self.busy_until = finish
            self.bytes_transferred += nbytes
            self.busy_us += duration
            # same ULP-for-ULP arithmetic a transfer() at the activation
            # instant would have produced
            push((activate_at + (finish - activate_at), seq, then, finish))

    def _arm(self) -> None:
        """Point the single event at the next delivery: the pending head
        (exact — pending completions always precede deferred ones), else
        the deferred head's projected delivery."""
        sim = self.sim
        pending = self._pending
        if pending:
            deliver_at, seq, _then, _finish = pending[0]
            now = sim.now
            if deliver_at < now:
                # sub-ULP corner: a zero-length transfer's rounded delivery
                # time can land one ULP before the previous delivery's clock
                deliver_at = now
            self._armed = True
            sim.reschedule(self._event, deliver_at, seq=seq)
            return
        deferred = self._deferred
        if not deferred:
            return
        activate_at, seq, nbytes, _then = deferred[0]
        busy = self.busy_until
        start = activate_at if activate_at > busy else busy
        projected = activate_at + (start + nbytes / self._bytes_per_us
                                   - activate_at)
        now = sim.now
        if projected < now:
            projected = now
        self._armed = True
        sim.reschedule(self._event, projected, seq=seq)

    def _on_event(self) -> None:
        """The armed instant arrived: apply every reservation that
        logically precedes it, deliver the head completion if its exact
        rank is due, and re-arm.  A wake-up armed at a projection that has
        since grown delivers nothing and simply re-arms later (busy growth
        is bounded by traffic, so spurious wakes are rare).  The callback
        may re-enter :meth:`transfer` (request chains); ``_armed`` is
        dropped first so a re-entrant transfer onto an emptied link arms
        itself."""
        self._armed = False
        sim = self.sim
        now = sim.now
        now_seq = sim.now_seq
        if self._deferred:
            self._apply_due(now, now_seq)
        pending = self._pending
        if pending:
            deliver_at, seq, then, finish = pending[0]
            # exact-rank due check: delivering at (now, now_seq) earlier
            # than the reserved (deliver_at, seq) would flip ties against
            # unrelated same-instant events
            if deliver_at < now or (deliver_at == now and seq <= now_seq):  # repro: allow[float-time-eq]
                pending.popleft()
                then(finish)
        if not self._armed and (self._pending or self._deferred):
            self._arm()

    def wait_us(self) -> float:
        """How long a transfer queued now would wait before starting."""
        sim = self.sim
        busy = self.busy_until
        # account for deferred reservations a transfer() call would apply
        # first, without mutating (the walk is over at most a handful of
        # entries — the NCQ bounds outstanding reservations)
        now = sim.now
        now_seq = sim.now_seq
        bytes_per_us = self._bytes_per_us
        for activate_at, seq, nbytes, _then in self._deferred:
            # exact-rank check against the loop's own (now, now_seq) stamp
            if activate_at > now or (activate_at == now and seq > now_seq):  # repro: allow[float-time-eq]
                break
            start = activate_at if activate_at > busy else busy
            busy = start + nbytes / bytes_per_us
        wait = busy - now
        return wait if wait > 0.0 else 0.0
