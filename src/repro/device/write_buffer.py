"""Write buffering: passthrough, queue merging, and a write-back cache.

§3.4 of the paper: "Write amplification can be reduced by merging writes and
aligning them to stripe sizes.  Since it is harder to estimate the stripe
size and alignment boundaries from a file system ..., an SSD must be
responsible for sector allocation and layout according to the stripe sizes."

Three behaviours, selected by ``SSDConfig.write_buffer``:

* ``"passthrough"`` — :class:`PassthroughBuffer` issues writes exactly as
  they arrive (the paper's *unaligned* baseline in Tables 3/4).
* ``"queue-merge"`` — :class:`QueueMergingBuffer` merges a dispatched
  write with co-queued writes on the same logical pages and issues the
  union as aligned runs (the paper's *aligned* scheme in Tables 3/4).
* ``"align"`` — :class:`AligningWriteBuffer` is a volatile write-back
  cache (the caches of S1slc and S3slc): requests complete on insertion
  while the buffer merges runs per logical page and drains them in the
  background — a page flushes once its runs cover it, when its hold window
  expires, under capacity pressure, or ahead of an overlapping read.
  Sustained random writes become drain-limited, which is why such a cache
  "is ineffective in masking the write amplifications" (Table 2, S3slc).
  Drained runs honour FTL allocation backpressure: they queue in a drain
  list and retry when cleaning frees space.  When the FTL reports that no
  reclamation can ever admit the head run (a wedged device), the device
  goes read-only and the held runs are dropped as lost pages.

All three share one FLUSH barrier (:meth:`PassthroughBuffer.flush_all`):
a counter of writes handed over but not yet programmed, which a barrier
waits to reach zero.  The cache counts a run from the moment it enters the
drain list, so runs held back by backpressure hold the barrier too; a
barrier that waited on dropped runs completes with ``"readonly"``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.device.interface import IORequest
from repro.ftl.base import DeviceFullError
from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.base import BaseFTL

__all__ = ["PassthroughBuffer", "AligningWriteBuffer", "QueueMergingBuffer"]


class PassthroughBuffer:
    """No buffering: every write goes straight to the FTL.

    Admission control happens at the SSD dispatcher (``admits``), so the
    FTL never sees a write it cannot allocate for.

    Flush/barrier semantics: the buffer holds no data, but writes it has
    issued may still be in flight inside the FTL.  ``flush_all`` therefore
    counts outstanding issued writes and completes only once they drain —
    an early barrier ack would claim durability for data still on the
    flash command queues (the seed acked at +0 µs unconditionally, which a
    regression test now pins against).
    """

    #: a write-back cache completes a write when it enters the buffer; the
    #: others complete it when the FTL has programmed it
    acks_on_insert = False
    #: bytes held in the buffer and not yet handed to the FTL
    buffered_bytes = 0

    def __init__(self, sim: Simulator, ftl: "BaseFTL") -> None:
        self.sim = sim
        self.ftl = ftl
        #: writes handed to the FTL whose ``done`` has not fired yet
        self._outstanding = 0
        #: barriers waiting for the outstanding count to hit zero, as
        #: ``[done, error]``: the error a barrier completes with is set
        #: when held runs it waited on are dropped
        self._flush_waiters: List[list] = []

    def admits(self, offset: int, size: int) -> bool:
        return self.ftl.can_accept_write(offset, size)

    def dispatched(self, request: IORequest) -> None:
        """*request* passed :meth:`admits` and left the device queue: the
        FTL holds the rows admission counted until :meth:`insert`."""
        self.ftl.promise(request.offset, request.size, 1)

    def insert(self, request: IORequest, complete: Callable[[IORequest], None]) -> None:
        self.ftl.promise(request.offset, request.size, -1)
        temp = "hot"
        hints = request.hints
        if hints is not None and hints.get("temp") == "cold":
            temp = "cold"
        self._outstanding += 1

        def done(now: float) -> None:
            complete(request)
            self._written(now)

        ftl = self.ftl
        if not ftl.faults_enabled:
            ftl.write(request.offset, request.size, done=done, temp=temp)
            return
        try:
            ftl.write(request.offset, request.size, done=done, temp=temp)
        except DeviceFullError:
            # the spare pool dried mid-write (block-mapped FTL under grown bad
            # blocks): fail the request instead of crashing the run.  The
            # completion fires here only: a write that raised never
            # completes through its FTL join, though the programs it
            # issued before raising still land
            ftl._note_write_error()
            self.sim.schedule(0.0, done, 0.0)
        # allocation-path failures are synchronous: attribute the FTL's
        # sticky error to the request that triggered it, so the device can
        # retry or surface it
        if ftl.write_error is not None:
            request.error = ftl.write_error
            ftl.write_error = None

    def before_read(self, offset: int, size: int) -> None:
        """Nothing is held here, so a read never waits on a flush."""

    def flush_all(self, done: Callable[[Optional[str]], None]) -> None:
        """Hand every held write to the FTL, then call ``done(error)`` once
        every issued write has left it (``error`` is None, or
        ``"readonly"`` when writes it waited on were dropped).

        Completion is asynchronous (zero-delay event) even when nothing is
        outstanding, preserving the no-reentrant-callback contract.
        """
        self._flush_waiters.append([done, None])
        self._flush_held()
        if self._outstanding == 0:
            self._release_barrier()

    def _flush_held(self) -> None:
        """A barrier arrived: hand over every held write (none here)."""

    def _written(self, now: float) -> None:
        """One outstanding write left the FTL; release the barrier at zero."""
        out = self._outstanding - 1
        self._outstanding = out
        if out == 0 and self._flush_waiters:
            self._release_barrier()

    def _release_barrier(self) -> None:
        waiters = self._flush_waiters
        self._flush_waiters = []
        for done, error in waiters:
            self.sim.schedule(0.0, done, error)

    def on_space_freed(self) -> None:
        pass


class _MergeRun:
    """One contiguous byte run of a merge batch, with its temperature tally.

    ``n``/``cold`` count the requests whose ranges were folded into the
    run; the run's write temperature is the majority hint (ties go hot, the
    conservative default — cold placement parks data on worn blocks, so a
    mixed run must not be parked on the word of a minority).
    """

    __slots__ = ("start", "end", "n", "cold")

    def __init__(self, start: int, end: int, cold: int) -> None:
        self.start = start
        self.end = end
        self.n = 1
        self.cold = cold

    @property
    def temp(self) -> str:
        return "cold" if 2 * self.cold > self.n else "hot"


def _run_start(run: _MergeRun) -> int:
    return run.start


class QueueMergingBuffer(PassthroughBuffer):
    """Merge a dispatched write with co-queued writes on the same stripes.

    This is the paper's §3.4 aligned scheme as a *queue* optimization: when
    a write reaches the head of the device queue, every still-queued write
    that lands in the same logical pages is pulled along and the union is
    issued as merged runs — one RMW (or a full-stripe write) serves the
    whole batch.  There is no hold timer, so a workload with nothing to
    merge (sequentiality 0) behaves exactly like the passthrough baseline,
    matching Table 3's p=0 row.

    Merge structure
    ---------------
    Coverage is maintained *incrementally* as requests are stolen: a sorted
    list of disjoint :class:`_MergeRun` byte runs, each absorption a bisect
    plus neighbour folds (amortized O(log runs) per request), replacing the
    seed's collect-everything-then-sort pass (O(batch log batch) per batch,
    rebuilt from scratch every time the steal window grew).  The run list
    doubles as the merge-window tracker: its first start / last end give
    the logical-page-aligned window chased in *both* directions — the seed
    only chased ``hi`` upward, and its steal predicate only matched writes
    starting inside the window, so co-queued writes overlapping the front
    of the union range were silently left behind (see
    ``SSD.steal_queued_writes``).

    Each run carries a temperature tally so a run of cold-hinted requests
    still lands in the FTL's cold partition — the seed's merge path dropped
    the ``temp`` hint entirely, sending cold-hinted writes hot whenever
    merging was enabled.

    A batch absorbs at most :data:`MAX_BATCH` requests; the steal calls are
    capped to the remaining headroom so truncation is exact, not
    best-effort.
    """

    def __init__(self, sim: Simulator, ftl: "BaseFTL", ssd,
                 logical_page_bytes: int) -> None:
        super().__init__(sim, ftl)
        self.ssd = ssd
        self.page_bytes = logical_page_bytes
        self.merged_requests = 0
        self.batches = 0

    #: bound on how many co-queued requests one batch may absorb
    MAX_BATCH = 64

    @staticmethod
    def _is_cold(request: IORequest) -> int:
        hints = request.hints
        return 1 if hints is not None and hints.get("temp") == "cold" else 0

    @staticmethod
    def _absorb(runs: List[_MergeRun], start: int, end: int, cold: int) -> None:
        """Fold [start, end) into the sorted disjoint run list.

        Runs merge when they overlap *or touch* (byte-adjacent writes become
        one contiguous FTL write), matching the seed's ``start <= prev_end``
        rule, so the resulting coverage is identical to sorting all ranges
        up front — interval union is order-independent.
        """
        i = bisect_right(runs, start, key=_run_start)
        if i and runs[i - 1].end >= start:
            run = runs[i - 1]
            run.n += 1
            run.cold += cold
            if end <= run.end:
                return
            run.end = end
        else:
            run = _MergeRun(start, end, cold)
            runs.insert(i, run)
            i += 1
        # the grown run may now swallow followers
        j = i
        while j < len(runs) and runs[j].start <= run.end:
            follower = runs[j]
            if follower.end > run.end:
                run.end = follower.end
            run.n += follower.n
            run.cold += follower.cold
            j += 1
        if j > i:
            del runs[i:j]

    def insert(self, request: IORequest, complete: Callable[[IORequest], None]) -> None:
        self.ftl.promise(request.offset, request.size, -1)
        lp = self.page_bytes
        group = [request]
        runs: List[_MergeRun] = [
            _MergeRun(request.offset, request.end, self._is_cold(request))
        ]
        lo = (request.offset // lp) * lp
        hi = -(-request.end // lp) * lp
        # chase the window both ways: a stolen write extending past either
        # edge pulls the adjacent stripe's co-queued writes in too
        while len(group) < self.MAX_BATCH:
            stolen = self.ssd.steal_queued_writes(
                lo, hi, limit=self.MAX_BATCH - len(group)
            )
            if not stolen:
                break
            group.extend(stolen)
            for r in stolen:
                self._absorb(runs, r.offset, r.end, self._is_cold(r))
            new_lo = (runs[0].start // lp) * lp
            new_hi = -(-runs[-1].end // lp) * lp
            if new_lo == lo and new_hi == hi:
                break  # window stable: the queue holds nothing else in range
            lo, hi = new_lo, new_hi
        self.batches += 1
        self.merged_requests += len(group) - 1

        remaining = [len(runs)]
        self._outstanding += len(runs)

        def run_done(now: float) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                for member in group:
                    complete(member)
            self._written(now)

        write = self.ftl.write
        for run in runs:
            write(run.start, run.end - run.start, done=run_done, temp=run.temp)


class _Run:
    """One buffered contiguous byte run inside a logical page."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end


class AligningWriteBuffer(PassthroughBuffer):
    """Volatile write-back cache that merges and stripe-aligns runs (see
    the module docstring).

    The buffer tracks byte runs per logical page.  A page whose runs cover
    it completely flushes immediately as one full-page write (no RMW in the
    FTL).  Pages still partial after ``window_us`` flush as-is.  When
    ``capacity_bytes`` is exceeded the oldest page flushes early.
    """

    acks_on_insert = True

    def __init__(
        self,
        sim: Simulator,
        ftl: "BaseFTL",
        logical_page_bytes: int,
        window_us: float = 1000.0,
        capacity_bytes: int = 1 << 20,
    ) -> None:
        if logical_page_bytes <= 0:
            raise ValueError("logical_page_bytes must be positive")
        super().__init__(sim, ftl)
        self.page_bytes = logical_page_bytes
        self.window_us = window_us
        self.capacity_bytes = capacity_bytes
        #: page index -> sorted disjoint runs, oldest buffered page first
        self._pages: Dict[int, List[_Run]] = {}
        self._timers: Dict[int, Event] = {}
        #: pages flushed but awaiting FTL admission (FIFO; deque keeps the
        #: backpressured drain path O(1) per run)
        self._drain_queue: Deque[Tuple[int, _Run]] = deque()
        self.buffered_bytes = 0
        self.flushes = 0
        self.full_page_flushes = 0
        #: every drained run completes through this one bound method
        self._written_b = self._written

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def admits(self, offset: int, size: int) -> bool:
        # memory-bounded by capacity flushes, not admission; a read-only
        # device refuses writes (the SSD fails them)
        return not self.ftl.read_only

    def dispatched(self, request: IORequest) -> None:
        """Admission here counts no FTL rows: the drain checks the FTL
        when it issues a run."""

    def insert(self, request: IORequest, complete: Callable[[IORequest], None]) -> None:
        """Ack one write request and absorb it (its byte range may span
        pages)."""
        self.sim.schedule(0.0, complete, request)
        offset, end = request.offset, request.end
        first = offset // self.page_bytes
        last = (end - 1) // self.page_bytes
        for page in range(first, last + 1):
            base = page * self.page_bytes
            lo = max(offset, base) - base
            hi = min(end, base + self.page_bytes) - base
            self._add_run(page, lo, hi)
        for page in range(first, last + 1):
            if page in self._pages and self._covered(page) == self.page_bytes:
                self._flush_page(page, full=True)
        self._enforce_capacity()

    def _add_run(self, page: int, lo: int, hi: int) -> None:
        runs = self._pages.get(page)
        if runs is None:
            runs = []
            self._pages[page] = runs
        else:
            # idle-based window: every touch restarts the clock, so an
            # in-progress sequential run is not flushed half-merged
            timer = self._timers.pop(page, None)
            if timer is not None:
                self.sim.cancel(timer)
        self._timers[page] = self.sim.schedule(
            self.window_us, self._window_expired, page
        )
        # splice [lo, hi) into the sorted disjoint run list — the same
        # bisect-window discipline as QueueMergingBuffer._absorb.  Runs are
        # kept strictly separated (touching runs merge on insert), so at
        # most one left neighbour can fold and followers fold while they
        # start inside the new range.
        added = hi - lo
        merged = _Run(lo, hi)
        i = bisect_right(runs, lo, key=_run_start)
        if i and runs[i - 1].end >= lo:
            i -= 1
        j = i
        while j < len(runs) and runs[j].start <= hi:
            run = runs[j]
            added -= max(0, min(run.end, hi) - max(run.start, lo))
            if run.start < merged.start:
                merged.start = run.start
            if run.end > merged.end:
                merged.end = run.end
            j += 1
        runs[i:j] = [merged]
        self.buffered_bytes += max(0, added)

    def _covered(self, page: int) -> int:
        return sum(r.end - r.start for r in self._pages.get(page, ()))

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------

    def _window_expired(self, page: int) -> None:
        self._timers.pop(page, None)
        if page in self._pages:
            self._flush_page(page, full=False)

    def _enforce_capacity(self) -> None:
        while self.buffered_bytes > self.capacity_bytes and self._pages:
            self._flush_page(next(iter(self._pages)), full=False)

    def _flush_page(self, page: int, full: bool) -> None:
        """Move the page's runs to the drain queue and try to issue them.

        A run counts as outstanding from here on, so a FLUSH barrier also
        waits for runs held back by allocation backpressure."""
        runs = self._pages.pop(page, None)
        if runs is None:
            return
        timer = self._timers.pop(page, None)
        if timer is not None:
            self.sim.cancel(timer)
        self.flushes += 1
        if full:
            self.full_page_flushes += 1
        self._outstanding += len(runs)
        for run in runs:
            self.buffered_bytes -= run.end - run.start
            self._drain_queue.append((page, run))
        self._drain()

    def _drain(self) -> None:
        """Issue drained runs to the FTL, respecting allocation backpressure."""
        ftl = self.ftl
        while self._drain_queue:
            page, run = self._drain_queue[0]
            offset = page * self.page_bytes + run.start
            size = run.end - run.start
            if not ftl.can_accept_write(offset, size):
                if ftl.read_only or ftl.write_wedged(offset, size):
                    self._drop_held()
                else:
                    ftl.ensure_space(offset, size)  # retried via on_space_freed
                return
            self._drain_queue.popleft()
            ftl.write(offset, size, done=self._written_b)

    def _drop_held(self) -> None:
        """No reclamation can ever admit the held runs: the device goes
        read-only, their pages are lost (``failed_pages``) and they leave
        the barrier, failing every FLUSH that waits on them."""
        ftl = self.ftl
        ftl.enter_read_only()
        fp = ftl.geometry.page_bytes
        for waiter in self._flush_waiters:
            waiter[1] = "readonly"
        held = self._drain_queue
        self._drain_queue = deque()
        for page, run in held:
            base = page * self.page_bytes
            ftl.stats.failed_pages += ((base + run.end - 1) // fp
                                       - (base + run.start) // fp + 1)
            self._written(self.sim.now)

    def on_space_freed(self) -> None:
        self._drain()

    # ------------------------------------------------------------------

    def before_read(self, offset: int, size: int) -> None:
        """Flush buffered pages overlapping a read about to be issued.

        Ordering note: the read proceeds once the flushes are *issued*; the
        per-element FIFOs then order the flash commands.  If a flush is held
        back by allocation backpressure the read may observe the old
        mapping's timing — acceptable in a timing simulator that does not
        carry payloads.
        """
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        for page in range(first, last + 1):
            if page in self._pages:
                self._flush_page(page, full=False)

    def _flush_held(self) -> None:
        for page in list(self._pages):
            self._flush_page(page, full=False)
