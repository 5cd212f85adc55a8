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
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.sim.stats import LatencyRecorder, StreamingLatencyRecorder
from repro.units import SECTOR

__all__ = [
    "OpType",
    "IORequest",
    "Completion",
    "DeviceStats",
    "StorageDevice",
    "RequestError",
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
    it outlives a dispatch.  ``__slots__`` (via the dataclass) keeps the
    instance compact and attribute access cheap.
    """

    op: OpType
    offset: int
    size: int
    priority: int = 0
    on_complete: Optional[Callable[["IORequest"], None]] = None
    tag: Optional[object] = None
    #: semantic hints (e.g. {"temp": "cold"}).  Only device-internal layers
    #: such as the OSD object store set these; a file system speaking the
    #: narrow block interface cannot — which is the paper's point.
    hints: Optional[dict] = None

    submit_us: float = field(default=-1.0, compare=False)
    complete_us: float = field(default=-1.0, compare=False)
    #: terminal error of the completed request — None on success,
    #: ``"transient"`` (flash failure, retries exhausted), ``"readonly"``
    #: (spares exhausted, device degraded to read-only), or ``"timeout"``
    error: Optional[str] = field(default=None, compare=False)

    # -- device-internal dispatch plumbing (stamped by the SSD; not part of
    # -- the host-visible request identity, hence compare=False/repr=False)

    #: submission sequence number, restamped per submit from a process-wide
    #: monotone counter: totally orders arrivals within a queue, and makes
    #: lazily-stored queue/scheduler entries from a previous submission
    #: unambiguously stale if the request object is ever resubmitted
    seq: int = field(default=-1, compare=False, repr=False)
    #: True while the request sits in the host queue (lazy-removal flag for
    #: the arrival deque and the scheduler's heap entries)
    queued: bool = field(default=False, compare=False, repr=False)
    #: the request's NCQ slot was released before completion (write-back
    #: cache ack, or the request was absorbed into another dispatch by
    #: queue merging).  A per-request flag — unlike an ``id()``-keyed side
    #: table, it cannot be corrupted by CPython reusing the id of a
    #: garbage-collected request.
    early_release: bool = field(default=False, compare=False, repr=False)
    #: admission memo (stamped by ``SSD.admissible``): the FTL allocation
    #: epoch the cached answer was computed under, and the answer.  Epoch
    #: values are globally unique (see ``repro.ftl.base._ALLOC_EPOCH``), so
    #: a memo stamped against one device can never be read as fresh by
    #: another even if the request object is resubmitted elsewhere.
    admit_epoch: int = field(default=0, compare=False, repr=False)
    admit_ok: bool = field(default=False, compare=False, repr=False)
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
        if self.op is OpType.FLUSH:
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
    """Per-device accounting every model keeps.

    * latency recorders split by op and by priority class,
    * bytes moved at the host interface,
    * ``media_bytes_written`` — bytes physically written to the medium, the
      numerator of the write-amplification factor (contract term 4).

    ``streaming=True`` swaps the exact recorders for
    :class:`repro.sim.stats.StreamingLatencyRecorder` (same
    ``record``/``count``/``summary`` API; ``samples`` becomes a uniform
    reservoir sample), so the device itself holds O(1) state over
    arbitrarily long replays — the last per-record accumulator after the
    driver's result moves to a streaming sink.
    """

    __slots__ = (
        "reads", "writes", "priority_reads", "priority_writes",
        "bytes_read", "bytes_written", "media_bytes_written",
        "requests_completed", "write_retries", "request_timeouts",
        "requests_failed",
        "_rec_read", "_rec_write", "_rec_pread", "_rec_pwrite",
    )

    def __init__(self, streaming: bool = False) -> None:
        if streaming:
            # distinct seeds: each recorder's reservoir samples its own
            # stream deterministically
            make = [StreamingLatencyRecorder(seed=0x5EED + i)
                    for i in range(4)]
        else:
            make = [LatencyRecorder() for _ in range(4)]
        self.reads, self.writes, self.priority_reads, self.priority_writes = make
        self.bytes_read = 0
        self.bytes_written = 0
        self.media_bytes_written = 0
        self.requests_completed = 0
        #: host-side write retries performed after transient device errors
        self.write_retries = 0
        #: requests whose service time exceeded the configured bound
        self.request_timeouts = 0
        #: requests that completed with an error (any kind)
        self.requests_failed = 0
        # prebound recorder entry points: record() runs once per request
        self._rec_read = self.reads.record
        self._rec_write = self.writes.record
        self._rec_pread = self.priority_reads.record
        self._rec_pwrite = self.priority_writes.record

    def record(self, request: IORequest) -> None:
        latency = request.complete_us - request.submit_us
        self.requests_completed += 1
        if request.error is not None:
            # error completions move no data and carry no meaningful
            # latency; they are counted, not folded into the recorders
            self.requests_failed += 1
            return
        op = request.op
        if op is OpType.READ:
            self.bytes_read += request.size
            self._rec_read(latency)
            if request.priority > 0:
                self._rec_pread(latency)
        elif op is OpType.WRITE:
            self.bytes_written += request.size
            self._rec_write(latency)
            if request.priority > 0:
                self._rec_pwrite(latency)

    @property
    def write_amplification(self) -> float:
        """Media bytes written per host byte written (1.0 when no writes)."""
        if self.bytes_written == 0:
            return 1.0
        return self.media_bytes_written / self.bytes_written


@runtime_checkable
class StorageDevice(Protocol):
    """The protocol every device model implements."""

    @property
    def capacity_bytes(self) -> int: ...

    @property
    def stats(self) -> DeviceStats: ...

    def submit(self, request: IORequest) -> None:
        """Accept a request; completion is signalled via request.on_complete."""
        ...
