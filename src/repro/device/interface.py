"""The block-level storage interface shared by every device model.

This is deliberately the narrow interface the paper critiques: READ/WRITE on
a byte range (sector-aligned), extended only by FREE (the TRIM-style delete
notification of §3.5/[8]) and FLUSH.  Requests carry a priority flag so the
paper's priority experiments (§3.6) can tag foreground I/O; a device that
ignores priorities simply treats every request the same.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.units import SECTOR

__all__ = [
    "OpType",
    "IORequest",
    "Completion",
    "DeviceStats",
    "StorageDevice",
    "RequestError",
    "submit_pieces",
]


class RequestError(ValueError):
    """Raised when a request violates the device's addressing rules."""


class OpType(enum.Enum):
    READ = "read"
    WRITE = "write"
    #: delete notification (TRIM): the byte range no longer holds live data
    FREE = "free"
    #: barrier / cache flush
    FLUSH = "flush"

    #: identity, not ``Enum``'s Python-level (and per-process salted) name
    #: hash.  Member access is slow too on CPython 3.11 (the metaclass
    #: ``__getattr__`` hook), so per-request code binds members to names.
    __hash__ = object.__hash__


_READ, _WRITE, _FLUSH = OpType.READ, OpType.WRITE, OpType.FLUSH


@dataclass(slots=True)
class IORequest:
    """One host request against a block device.

    ``offset`` and ``size`` are bytes and must be sector-aligned.  ``priority``
    is 0 for normal (background) traffic and >0 for foreground/priority
    traffic (§3.6).  ``on_complete`` fires once, on the simulator clock, with
    the finished request; ``submit_us``/``complete_us`` are stamped by the
    device.

    Instances are plain value objects that drivers construct directly, one
    per submission.  The device restamps the dispatch fields below on every
    submit and hangs no callbacks or events off the request, so nothing on
    it outlives a dispatch.  The host queue keeps its own arrival stamps
    and finds a queued request by identity, so nothing on the request
    records that it is queued, and an object that has left one queue may
    be submitted again, to the same device or another.  ``__slots__``
    (via the dataclass) keeps the instance compact and attribute access
    cheap.
    """

    op: OpType
    offset: int
    size: int
    priority: int = 0
    on_complete: Optional[Callable[["IORequest"], None]] = None
    #: semantic hints (e.g. {"temp": "cold"}).  Only device-internal layers
    #: such as the OSD object store set these; a file system speaking the
    #: narrow block interface cannot — which is the paper's point.
    hints: Optional[dict] = None

    submit_us: float = field(default=-1.0, compare=False)
    complete_us: float = field(default=-1.0, compare=False)
    #: terminal error of the completed request — None on success,
    #: ``"transient"`` (flash failure, retries exhausted), ``"readonly"``
    #: (spares exhausted, device degraded to read-only)
    error: Optional[str] = field(default=None, compare=False)

    # -- device-internal dispatch plumbing (stamped by the SSD; not part of
    # -- the host-visible request identity, hence compare=False/repr=False)

    #: the request's NCQ slot was released before completion (write-back
    #: cache ack, or the request was absorbed into another dispatch by
    #: queue merging).  A per-request flag — unlike an ``id()``-keyed side
    #: table, it cannot be corrupted by CPython reusing the id of a
    #: garbage-collected request.
    early_release: bool = field(default=False, compare=False, repr=False)
    #: host-side write retries remaining (stamped at submit from the
    #: device's ``host_retry_limit``; decremented per retry)
    retries_left: int = field(default=0, compare=False, repr=False)

    @property
    def response_us(self) -> float:
        """Response time; valid only after completion."""
        if self.complete_us < 0 or self.submit_us < 0:
            raise RequestError("request has not completed")
        return self.complete_us - self.submit_us

    @property
    def end(self) -> int:
        return self.offset + self.size

    def validate(self, capacity_bytes: int) -> None:
        """Refuse a request the device cannot address: FLUSH is exempt,
        anything else needs a positive, sector-aligned size at a
        non-negative, sector-aligned offset inside the capacity."""
        offset = self.offset
        size = self.size
        # the valid case in one test; a failure falls through to the checks
        # below, which raise the first failed check's message
        if (offset >= 0 and size > 0 and offset + size <= capacity_bytes
                and not offset % SECTOR and not size % SECTOR
                or self.op is _FLUSH):
            return
        if self.size <= 0:
            raise RequestError(f"request size must be positive, got {self.size}")
        if self.offset < 0:
            raise RequestError(f"negative offset {self.offset}")
        if self.offset % SECTOR or self.size % SECTOR:
            raise RequestError(
                f"offset/size must be {SECTOR}-byte aligned "
                f"(offset={self.offset}, size={self.size})"
            )
        if self.offset + self.size > capacity_bytes:
            raise RequestError(
                f"request [{self.offset}, {self.offset + self.size}) exceeds "
                f"capacity {capacity_bytes}"
            )


class Completion(namedtuple("Completion", (
        "op", "offset", "size", "priority", "submit_us", "complete_us",
        "error"), defaults=(None,))):
    """Summary of one finished request (used by drivers that batch results).

    Fields: ``op`` (:class:`OpType`), ``offset``, ``size``, ``priority``,
    ``submit_us``, ``complete_us`` and ``error``, the terminal error of the
    request (see :attr:`IORequest.error`; None on success).

    A named tuple rather than a frozen dataclass: closed-loop drivers build
    one per request, and a tuple builds about three times faster.  It is
    immutable and has no ``__dict__``."""

    __slots__ = ()

    @property
    def response_us(self) -> float:
        return self.complete_us - self.submit_us

    @classmethod
    def of(cls, request: IORequest) -> "Completion":
        return cls(request.op, request.offset, request.size,
                   request.priority, request.submit_us, request.complete_us,
                   request.error)


class DeviceStats:
    """Per-device counters every model keeps; no latency.

    Response times are the result sink's to record
    (:mod:`repro.workloads.driver`); the device only counts, so it holds
    O(1) state however long it runs:

    * ``reads``/``writes`` — successful completions by op,
    * ``bytes_read``/``bytes_written`` — bytes moved at the host interface
      by those completions,
    * ``media_bytes_written`` — bytes physically written to the medium, the
      numerator of the write-amplification factor (contract term 4),
    * ``requests_failed`` and ``write_retries``.
    """

    __slots__ = (
        "reads", "writes", "bytes_read", "bytes_written",
        "media_bytes_written", "write_retries", "requests_failed",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.media_bytes_written = 0
        #: host-side write retries performed after transient device errors
        self.write_retries = 0
        #: requests that completed with an error (any kind)
        self.requests_failed = 0

    def record(self, request: IORequest) -> None:
        if request.error is not None:
            # error completions move no data; they are counted apart
            self.requests_failed += 1
            return
        op = request.op
        if op is _READ:
            self.bytes_read += request.size
            self.reads += 1
        elif op is _WRITE:
            self.bytes_written += request.size
            self.writes += 1

    @property
    def write_amplification(self) -> float:
        """Media bytes written per host byte written (1.0 when no writes)."""
        if self.bytes_written == 0:
            return 1.0
        return self.media_bytes_written / self.bytes_written


class StorageDevice:
    """The base of the block-device models (HDD, MEMS, RAID-5, tiered).

    A subclass answers ``capacity_bytes`` and ``submit(request)``.  Its
    ``submit`` opens with :meth:`_accept` and every request it takes ends
    in one :meth:`_complete`, on the simulator clock.  The SSD keeps its
    own submit and completion, which also run its NCQ slots, retries and
    priority count.
    """

    __slots__ = ("sim", "_stats")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._stats = DeviceStats()

    @property
    def stats(self) -> DeviceStats:
        return self._stats

    def _accept(self, request: IORequest) -> None:
        """Refuse a request the device cannot address; stamp its submit."""
        request.validate(self.capacity_bytes)
        request.submit_us = self.sim.now

    def _complete(self, request: IORequest, error: Optional[str] = None) -> None:
        """Finish *request* with *error* (None on success): stamp it,
        count it and fire its ``on_complete``."""
        request.error = error
        request.complete_us = self.sim.now
        self._stats.record(request)
        if request.on_complete is not None:
            request.on_complete(request)


def submit_pieces(sim: Simulator, pieces: Sequence[Tuple[Any, IORequest]],
                  done: Optional[Callable[[Optional[str]], None]]) -> None:
    """Submit each ``(device, request)`` piece of a split request, in
    order, and call ``done(error)`` once after the last piece completes.

    ``error`` is the error of the first piece to complete with one (None
    if every piece succeeded).  With no pieces ``done(None)`` runs from
    one zero-delay event, never from inside this call.  A ``done`` of
    None means nobody is waiting.
    """
    if not pieces:
        if done is not None:
            sim.schedule(0.0, done, None)
        return
    remaining = len(pieces)
    error: Optional[str] = None

    def piece_done(piece: IORequest) -> None:
        nonlocal remaining, error
        if error is None:
            error = piece.error
        remaining -= 1
        if remaining == 0 and done is not None:
            done(error)

    for device, request in pieces:
        request.on_complete = piece_done
        device.submit(request)
