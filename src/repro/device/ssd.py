"""The SSD device model (paper Figure 1).

Request lifecycle::

    submit -> host queue -> [scheduler picks] -> controller overhead
           -> WRITE: host-link transfer -> write buffer -> FTL fan-out
           -> READ:  buffer flush check -> FTL fan-out -> host-link transfer
           -> FREE:  FTL trim (when trim_enabled) — metadata only
           -> FLUSH: host-link crossing -> write-buffer drain
    completion -> stats, on_complete callback

Concurrency model: up to ``max_inflight`` requests are in service at once
(NCQ-style).  Reads hold their slot until data returns; writes release it
once the device has absorbed the data (buffer insert), which is when a real
device acknowledges a cached write command's transfer.  Flash-level
parallelism and queueing happen inside the per-element FIFOs; background
cleaning competes there, which is exactly the interference §3.6 studies.

A FLUSH is a barrier: it completes only once every WRITE submitted before
it is on flash.  It is not admitted while an earlier WRITE is still in the
host queue, and it crosses the host link behind the data of every WRITE
already dispatched (the link is FIFO), so all of them are in the write
buffer when its drain starts.

Priority plumbing: the count of outstanding priority requests feeds the
FTL's cleaner through ``priority_probe``, enabling the paper's
priority-aware cleaning.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.device.interface import DeviceStats, IORequest, OpType
from repro.device.scheduler import make_scheduler
from repro.device.ssd_config import SSDConfig
from repro.device.write_buffer import (
    AligningWriteBuffer,
    PassthroughBuffer,
    QueueMergingBuffer,
)
from repro.flash.element import FlashElement
from repro.flash.faults import FaultModel
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.sim.engine import Simulator
from repro.sim.resource import SerialResource

__all__ = ["SSD"]

_READ, _WRITE, _FLUSH = OpType.READ, OpType.WRITE, OpType.FLUSH  # see OpType


class SSD:
    """A simulated solid-state device (see module docstring)."""

    def __init__(self, sim: Simulator, config: Optional[SSDConfig] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else SSDConfig()
        cfg = self.config

        self.elements: List[FlashElement] = [
            FlashElement(sim, cfg.geometry, cfg.timing, element_id=index)
            for index in range(cfg.n_elements)
        ]

        if cfg.ftl_type == "pagemap":
            self.ftl = PageMappedFTL(
                sim,
                self.elements,
                logical_page_bytes=cfg.logical_page_bytes,
                spare_fraction=cfg.spare_fraction,
                cleaning=cfg.cleaning,
                wear=cfg.wear,
            )
            stripe = self.ftl.logical_page_bytes
        else:
            self.ftl = BlockMappedFTL(
                sim,
                self.elements,
                gang_size=cfg.gang_size,
                spare_fraction=cfg.spare_fraction,
            )
            stripe = self.ftl.stripe_bytes

        if cfg.write_buffer == "align":
            self.write_buffer = AligningWriteBuffer(
                sim,
                self.ftl,
                logical_page_bytes=cfg.buffer_page_bytes or stripe,
                window_us=cfg.buffer_window_us,
                capacity_bytes=cfg.buffer_capacity_bytes,
            )
        elif cfg.write_buffer == "queue-merge":
            self.write_buffer = QueueMergingBuffer(
                sim, self.ftl, self,
                logical_page_bytes=cfg.buffer_page_bytes or stripe,
            )
        else:
            self.write_buffer = PassthroughBuffer(sim, self.ftl)

        if cfg.faults is not None and cfg.faults.enabled:
            for el in self.elements:
                el.fault_model = FaultModel(cfg.faults, el.element_id)
            self.ftl.faults_enabled = True
        self._retry_limit = cfg.host_retry_limit
        self._retry_backoff_us = cfg.host_retry_backoff_us

        #: the host queue is the dispatch policy (see repro.device.scheduler)
        self.queue = make_scheduler(cfg.scheduler)
        self.link = SerialResource(sim, cfg.host_interface_mb_s)
        self._stats = DeviceStats()
        self._inflight = 0
        self._pending_priority = 0
        # hot-loop scalars hoisted off the (frozen) config: _pump runs twice
        # per request, so the attribute chains matter
        self._max_inflight = cfg.max_inflight
        self._overhead_us = cfg.controller_overhead_us
        self._capacity_bytes = self.ftl.logical_capacity_bytes
        #: one bound method for the buffer-insert completion plumbing (a
        #: fresh bound method per insert is an allocation per write)
        self._complete_b = self._complete
        self._stats_record = self._stats.record
        self._ack_on_insert = self.write_buffer.acks_on_insert

        self.ftl.priority_probe = lambda: self._pending_priority
        self.ftl.on_space_freed = self._space_freed

    # ------------------------------------------------------------------
    # StorageDevice protocol
    # ------------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.ftl.logical_capacity_bytes

    @property
    def stats(self) -> DeviceStats:
        self._stats.media_bytes_written = self.ftl.media_bytes_written
        return self._stats

    def submit(self, request: IORequest) -> None:
        request.validate(self._capacity_bytes)
        request.submit_us = self.sim.now
        request.error = None
        request.retries_left = self._retry_limit
        if request.priority > 0:
            self._pending_priority += 1
        if (not self.queue.pending and self._inflight < self._max_inflight
                and (request.op is not _WRITE
                     or self.admissible(request))):
            # empty-queue fast lane: with a single candidate every
            # scheduler picks it (FCFS head; SWTF minimum over one bucket)
            # iff admissible, so the queue round-trip — bucket entry,
            # heap push, select walk — is skipped whole.
            # On a device that keeps up with its arrivals this is the
            # common case, and it is exactly equivalent: an inadmissible
            # write falls through to the ordinary path, where the pump
            # records the stall and forces reclamation as before.
            # (non-WRITEs are always admissible; the op check here saves
            # the probe call on the read-heavy half of a mixed load)
            self._inflight += 1
            self._arm_dispatch(request)
            return
        self.queue.on_submit(request, self)
        self._pump()

    def submit_batch(self, requests: Iterable[IORequest]) -> None:
        """Submit requests arriving at this instant, in order: one
        :meth:`submit` each."""
        for request in requests:
            self.submit(request)

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------

    def admissible(self, request: IORequest) -> bool:
        """Can this request start service now?  A WRITE needs flash
        allocation headroom; a FLUSH waits until no WRITE submitted before
        it is still queued (under SWTF its wait is zero, so it would
        otherwise overtake them)."""
        op = request.op
        if op is _WRITE:
            return self.write_buffer.admits(request.offset, request.size)
        if op is _FLUSH:
            for queued in self.queue:
                if queued is request:
                    break
                if queued.op is _WRITE:
                    return False
        return True

    def _pump(self) -> None:
        queue = self.queue
        while self._inflight < self._max_inflight and queue.pending:
            request = queue.select(self)
            if request is None:
                head = queue.head()
                if head is not None and head.op is _WRITE:
                    self.ftl.stats.write_stalls += 1
                    if not self.ftl.ensure_space(head.offset, head.size):
                        self._fail_queued_writes()  # read-only for good
                        continue  # reads behind the writes can now dispatch
                return
            self._inflight += 1
            self._arm_dispatch(request)

    def _arm_dispatch(self, request: IORequest) -> None:
        """Start the controller-overhead hop for a dispatched request.

        WRITEs fuse the hop into the host-link reservation
        (:meth:`repro.sim.resource.SerialResource.transfer_after`): the
        hop's only job was to call ``link.transfer`` at ``now +
        overhead``, so the link records the delayed reservation directly —
        same queueing position, same clock stamps — and one scheduled
        event covers overhead + transfer where the seed used two.

        A FLUSH reserves the link the same way with no data: it arrives
        behind every WRITE dispatched before it, then drains the buffer;
        it completes with ``"readonly"`` if a wedged device dropped data
        it waited on.

        READs (and FREEs) keep the discrete hop: their dispatch instant
        consults FTL mapping state and claims element-FIFO positions,
        which cannot be deferred.
        """
        op = request.op
        if op is _WRITE:
            self.write_buffer.dispatched(request)
            self.link.transfer_after(self._overhead_us, request.size,
                                     lambda now: self._write_arrived(request))
        elif op is _FLUSH:
            self.link.transfer_after(
                self._overhead_us, 0,
                lambda now: self.write_buffer.flush_all(
                    lambda error: self._flushed(request, error)))
        else:
            self.sim.schedule(self._overhead_us, self._dispatch, request)

    def _dispatch(self, request: IORequest) -> None:
        """The controller-overhead hop of a READ or FREE."""
        if request.op is _READ:
            self.write_buffer.before_read(request.offset, request.size)
            self.ftl.read(request.offset, request.size,
                          done=lambda now: self._read_media_done(request))
        else:
            if self.config.trim_enabled:
                self.ftl.trim(request.offset, request.size)
            self._complete(request)

    def _write_arrived(self, request: IORequest) -> None:
        """Host data fully transferred: hand to the buffer.

        A write-back cache (buffer acking on insert) frees the NCQ slot
        immediately; otherwise the slot is held until the media completes,
        as with real NCQ commands.
        """
        if self._ack_on_insert:
            request.early_release = True
            self.write_buffer.insert(request, complete=self._complete_b)
            self._release_slot()
        else:
            self.write_buffer.insert(request, complete=self._complete_b)

    def _flushed(self, request: IORequest, error: Optional[str]) -> None:
        """The FLUSH barrier released *request*."""
        request.error = error
        self._complete(request)

    def _read_media_done(self, request: IORequest) -> None:
        """Flash reads finished: return data over the host link."""
        self.link.transfer(request.size,
                           lambda now: self._complete(request))

    def _complete(self, request: IORequest) -> None:
        request.complete_us = self.sim.now
        if (request.error == "transient" and request.retries_left > 0
                and not self.ftl.read_only):
            self._schedule_retry(request)
            return
        self._stats_record(request)
        self._leave_service(request)
        if request.on_complete is not None:
            request.on_complete(request)

    def _leave_service(self, request: IORequest) -> None:
        """*request* gives back what it held while in service: its count
        in the outstanding priority requests (the FTL resumes paused work
        when that reaches zero) and its NCQ slot, unless that was released
        early."""
        if request.priority > 0:
            self._pending_priority -= 1
            if self._pending_priority == 0:
                self.ftl.priority_idle()
        if request.early_release:
            request.early_release = False
        else:
            self._release_slot()

    def _schedule_retry(self, request: IORequest) -> None:
        """A write failed with a transient error and has retry budget:
        release its service resources now and resubmit after an
        exponentially-growing backoff."""
        request.retries_left -= 1
        self._stats.write_retries += 1
        self._leave_service(request)
        attempt = self._retry_limit - request.retries_left  # 1-based
        delay = self._retry_backoff_us * (2.0 ** (attempt - 1))
        self.sim.schedule(delay, self._resubmit, request)

    def _resubmit(self, request: IORequest) -> None:
        """Re-enter the front door, preserving the original submit stamp
        (latency spans all attempts) and the remaining retry budget."""
        first_submit_us = request.submit_us
        budget = request.retries_left
        self.submit(request)
        request.submit_us = first_submit_us
        request.retries_left = budget

    def _fail_queued_writes(self) -> None:
        """Read-only degradation: complete every queued write with an
        error so the reads queued behind them can proceed."""
        failed = [r for r in self.queue if r.op is _WRITE]
        for request in failed:
            self.queue.remove(request, self)
            request.error = "readonly"
            # never dispatched, so there is no NCQ slot to release
            request.early_release = True
            # complete via a zero-delay event: the driver's on_complete may
            # submit more requests, which must not re-enter the pump; the
            # write left the queue for good, so queued writes only decrease
            self.sim.schedule(0.0, self._complete, request)

    def _release_slot(self) -> None:
        self._inflight -= 1
        if self.queue.pending:
            self._pump()

    def steal_queued_writes(
        self, lo: int, hi: int, limit: Optional[int] = None
    ) -> List[IORequest]:
        """Remove and return queued WRITEs overlapping or abutting [lo, hi].

        Used by :class:`QueueMergingBuffer`: the stolen requests ride along
        with the write being dispatched (their completions fire with the
        merged batch, so they never occupy a dispatch slot of their own).

        A write is stolen when its byte range intersects the window or
        touches either edge (``offset <= hi and end >= lo``).  The seed
        implementation only matched writes *starting* inside the window
        (``lo <= offset <= hi``), which silently dropped co-queued writes
        that begin below ``lo`` but overlap it — those later dispatched
        alone and re-RMW'd the same stripe.  The buffer chases the union
        range in both directions: a stolen write extending past either edge
        grows the merge window and steals again, chaining contiguous
        streams forward *and* backward.

        ``limit`` caps how many writes one call may return (the buffer
        passes its remaining batch headroom so a batch never exceeds
        ``MAX_BATCH``); queue arrival order decides which are taken first.
        """
        stolen: List[IORequest] = []
        for queued in self.queue:
            if (queued.op is _WRITE and queued.offset <= hi
                    and queued.offset + queued.size >= lo):
                stolen.append(queued)
                if limit is not None and len(stolen) >= limit:
                    break
        for request in stolen:
            self.queue.remove(request, self)
            request.early_release = True
        return stolen

    def _space_freed(self) -> None:
        self.write_buffer.on_space_freed()
        self._pump()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SSD {self.config.name} queued={len(self.queue)} "
            f"inflight={self._inflight}>"
        )
