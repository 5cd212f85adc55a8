"""One flash element: serial timed command execution + physical page state.

The element plays two roles:

1. **Timed executor.**  Commands are enqueued FIFO and executed one at a
   time — a flash die can only do one array operation at once.  Completion
   callbacks fire on the simulator clock.  ``drain_at_us`` is the one wait
   state: ``queue_wait_us()`` reads it as the estimated wait, and the
   paper's SWTF scheduler (§3.2) ranks requests by it.

   Commands enter through the issue helpers (:meth:`FlashElement.read_page`,
   :meth:`~FlashElement.program_page`, :meth:`~FlashElement.erase_block`,
   :meth:`~FlashElement.copy_run`), each of which makes its state
   transition and queues the timed command.  The FIFO holds plain
   ``(duration_us, accumulator, callback, pages)`` tuples in a ``deque``;
   one reusable *drain* event per element realizes it on the clock (no
   per-op Event), and each tuple carries its tag's ``[busy_us, op_count]``
   accumulator cell so completion does no dict update.  An earlier version
   queued recycled command objects from a per-element slab; a tuple costs
   less to build than a slab round trip.

   Cleaning copies pages in *runs*: :meth:`FlashElement.copy_run` moves a
   list of source pages into consecutive destination pages with one call
   and queues the whole run as one FIFO entry of ``pages`` equal-length
   page commands (host commands are entries of one page).  The drain event
   *ticks* through a run's pages (:class:`repro.sim.engine.Event`): the
   engine re-arms it once per page with the seq and time a per-page
   re-arm would use, but runs :meth:`FlashElement._on_drain` only when the
   run's last page finishes, so a copy page costs a heap entry and no
   Python call.  Because of that, ``busy_us``/``ops_by_tag`` count a run's
   pages when the run completes, adding them one page at a time (the same
   float sums as per-page accounting): mid-run they lag by up to one run,
   and a run is at most one cleaning batch.
   On the cleaning-heavy ``gc_churn`` benchmark the tuple FIFO and run
   copy-back raised ``records_per_s`` by 14–19 % in the median (two paired
   A/B runs of 10 pairs on a two-core Xeon, Python 3.11, change winning 9
   of 10 in each).

2. **Physical page state machine.**  Every physical page is FREE → VALID →
   INVALID → (erase) → FREE.  State transitions are *synchronous* — the FTL
   updates them at command issue so that back-to-back commands in the queue
   observe consistent mappings; the element enforces legality (no program of
   a non-free page, no double-invalidate, erase resets the block).

State is held in numpy arrays so multi-GB devices stay compact and warm-up
(:mod:`repro.ftl.prefill`) can bulk-initialize.  Hot scalar accesses go
through memoryviews over the same buffers — plain-int reads without numpy
scalar boxing — so bulk operations stay vectorized while the per-op path
stays cheap.  The per-page views are flat (index ``block * ppb + page``,
the page-mapped FTL's physical page number): a 1-D memoryview index costs
about half a 2-D ``mv[block, page]`` one.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.ops import TAG_CLEAN, TAG_HOST
from repro.flash.timing import FlashTiming
from repro.sim.engine import Event, Simulator

__all__ = ["PageState", "FlashElement", "FlashStateError"]


class FlashStateError(RuntimeError):
    """An illegal physical page state transition was attempted."""


class PageState:
    """Physical page states (stored as uint8 in the state arrays)."""

    __slots__ = ()

    FREE = 0
    VALID = 1
    INVALID = 2


class FlashElement:
    """A single parallel element (package/die) of an SSD."""

    __slots__ = (
        "sim", "geometry", "timing", "element_id",
        "page_state", "reverse_lpn", "valid_count", "write_ptr",
        "erase_count", "block_mtime", "retired",
        "_ps", "_rl", "_vc", "_wp", "_ec", "_mt", "_rt",
        "_queue", "_inflight", "drain_at_us", "_drain",
        "_ppb", "_page_bytes", "_page_read_us", "_page_program_us",
        "_erase_cmd_us", "_page_copy_us",
        "_accum", "erases_performed", "pages_programmed", "pages_read",
        "read_retries", "fault_model", "strict_program_order",
        "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        geometry: FlashGeometry,
        timing: FlashTiming,
        element_id: int = 0,
    ) -> None:
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.element_id = element_id

        blocks = geometry.blocks_per_element
        ppb = geometry.pages_per_block

        #: per-page state, PageState values
        self.page_state = np.zeros((blocks, ppb), dtype=np.uint8)
        #: logical page tag per physical page (-1 when free/invalid); the FTL
        #: uses this as its reverse map during cleaning
        self.reverse_lpn = np.full((blocks, ppb), -1, dtype=np.int64)
        #: valid pages per block (kept in sync with page_state)
        self.valid_count = np.zeros(blocks, dtype=np.int32)
        #: pages written so far per block: NAND requires in-order programming
        self.write_ptr = np.zeros(blocks, dtype=np.int32)
        #: erase cycles endured per block
        self.erase_count = np.zeros(blocks, dtype=np.int64)
        #: simulated time of the last write to each block (for cost-benefit)
        self.block_mtime = np.zeros(blocks, dtype=np.float64)
        #: blocks retired after exceeding rated erase cycles
        self.retired = np.zeros(blocks, dtype=bool)

        # memoryviews over the arrays above: scalar reads/writes without
        # numpy boxing; bulk/vectorized users keep the numpy handles.  The
        # per-page views are flat: page (block, page) is block * ppb + page
        self._ppb = ppb
        self._ps = memoryview(self.page_state.reshape(-1))
        self._rl = memoryview(self.reverse_lpn.reshape(-1))
        self._vc = memoryview(self.valid_count)
        self._wp = memoryview(self.write_ptr)
        self._ec = memoryview(self.erase_count)
        self._mt = memoryview(self.block_mtime)
        self._rt = memoryview(self.retired)

        # timed-executor state
        #: queued ops as (duration_us, accumulator, callback, pages) tuples:
        #: *pages* commands of *duration_us* each, *callback* riding the last
        self._queue: deque[tuple] = deque()
        self._inflight: Optional[tuple] = None
        #: absolute simulated time at which everything currently enqueued
        #: (inflight + FIFO) finishes.  Updated O(1) at enqueue only: popping
        #: the next op moves work from the FIFO to the in-flight slot without
        #: changing when the tail drains, and an idle element simply leaves a
        #: stale (past) value behind, so ``queue_wait_us()`` clamps at zero.
        #: Monotonically non-decreasing (an idle element's stale value is
        #: at or below ``now``, so a new tail lands at or after it), which
        #: is what keeps every stored key of
        #: :class:`repro.device.scheduler.SWTFScheduler`'s lazy-key bucket
        #: heap at or below the bucket's true key.
        self.drain_at_us: float = 0.0
        #: the one drain event realizing this element's FIFO on the clock;
        #: it ticks through the pages of a multi-page entry
        self._drain = Event(0.0, -1, self._on_drain, ())
        self._drain.alive = False

        # per-page-command durations for the overwhelmingly common sizes
        page_bytes = geometry.page_bytes
        self._page_bytes = page_bytes
        self._page_read_us = timing.read_us(page_bytes)
        self._page_program_us = timing.program_us(page_bytes)
        self._erase_cmd_us = timing.erase_us()
        self._page_copy_us = timing.copy_us(page_bytes)

        # accounting: tag -> [busy_us, op_count]; queued ops hold their cell
        self._accum: dict[str, list] = {}
        self.erases_performed = 0
        self.pages_programmed = 0
        self.pages_read = 0
        #: read-retry steps endured (transient read errors, faults only)
        self.read_retries = 0

        #: optional :class:`repro.flash.faults.FaultModel`; None (the
        #: default) means a flawless medium — every hook below is guarded
        #: so fault-free runs stay bit-identical
        self.fault_model = None

        #: NAND in-order programming enforcement.  Log-structured FTLs keep
        #: this True; the block-mapped FTL programs pages in place at
        #: arbitrary offsets (legal on the SLC-era parts it models) and
        #: turns it off.
        self.strict_program_order: bool = True

    # ------------------------------------------------------------------
    # timed execution
    # ------------------------------------------------------------------

    def _issue(self, duration_us: float, tag: str,
               callback: Optional[Callable[[float], None]]) -> None:
        """Start the op now if the element is idle, else append it to the
        FIFO; hot path (runs once per flash command)."""
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        if self._inflight is None:
            self._inflight = (duration_us, acc, callback, 1)
            done_at = self.sim.now + duration_us
            self.drain_at_us = done_at
            self.sim.reschedule(self._drain, done_at)
        else:
            self._queue.append((duration_us, acc, callback, 1))
            self.drain_at_us += duration_us

    def _on_drain(self) -> None:
        """The in-flight entry's last page finished: account its pages,
        start the next entry, notify."""
        duration_us, acc, callback, pages = self._inflight
        if pages == 1:
            acc[0] += duration_us
        else:
            # page by page: the same float sum as one drain per page
            busy_us = acc[0]
            for _ in range(pages):
                busy_us += duration_us
            acc[0] = busy_us
        acc[1] += pages
        sim = self.sim
        queue = self._queue
        if queue:
            nxt = self._inflight = queue.popleft()
            if nxt[3] != 1:
                # a copy run: the drain ticks through all but its last page
                drain = self._drain
                drain.ticks = nxt[3] - 1
                drain.period = nxt[0]
            sim.reschedule(self._drain, sim.now + nxt[0])
            if callback is not None:
                callback(sim.now)
            return
        self._inflight = None
        if callback is not None:
            callback(sim.now)

    @property
    def queue_depth(self) -> int:
        """Page commands not yet finished (in flight and queued)."""
        depth = sum(entry[3] for entry in self._queue)
        if self._inflight is not None:
            depth += self._drain.ticks + 1
        return depth

    def queue_wait_us(self) -> float:
        """Estimated wait before a newly enqueued op would start executing:
        the time until everything enqueued drains — the quantity SWTF
        ranks by."""
        wait = self.drain_at_us - self.sim.now
        return wait if wait > 0.0 else 0.0

    @property
    def ops_by_tag(self) -> dict[str, int]:
        """Completed op count per accounting tag (a copy run's pages count
        when the run completes)."""
        return {tag: acc[1] for tag, acc in self._accum.items()}

    def busy_us(self, tag: Optional[str] = None) -> float:
        """Total busy time, optionally restricted to one accounting tag (a
        copy run's pages count when the run completes)."""
        if tag is not None:
            acc = self._accum.get(tag)
            return acc[0] if acc is not None else 0.0
        return sum(acc[0] for acc in self._accum.values())

    # ------------------------------------------------------------------
    # physical state transitions (synchronous; called by the FTL at issue)
    # ------------------------------------------------------------------

    def program_state(self, block: int, page: int, lpn: int,
                      op: str = "program", tag: Optional[str] = None) -> None:
        """Mark (block, page) programmed with logical page *lpn*.

        Enforces NAND in-order programming within a block.  *op* and *tag*
        only enrich the error message when the transition is illegal.
        """
        ppn = block * self._ppb + page
        if self._ps[ppn] != PageState.FREE:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-free "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )
        write_ptr = self._wp[block]
        if self.strict_program_order and page != write_ptr:
            raise FlashStateError(
                f"element {self.element_id}: out-of-order {op} (tag={tag}) of "
                f"page {page} in block {block} "
                f"(write_ptr={self.write_ptr[block]})"
            )
        self._ps[ppn] = PageState.VALID
        self._rl[ppn] = lpn
        self._vc[block] += 1
        if page >= write_ptr:
            self._wp[block] = page + 1
        self._mt[block] = self.sim.now
        self.pages_programmed += 1

    def invalidate_state(self, block: int, page: int,
                         op: str = "invalidate",
                         tag: Optional[str] = None) -> None:
        """Mark a previously valid page invalid (its data was superseded)."""
        ppn = block * self._ppb + page
        if self._ps[ppn] != PageState.VALID:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-valid "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )
        self._ps[ppn] = PageState.INVALID
        self._rl[ppn] = -1
        self._vc[block] -= 1

    def erase_state(self, block: int, op: str = "erase",
                    tag: Optional[str] = None) -> None:
        """Reset a block to all-free and charge one erase cycle."""
        if self._vc[block] != 0:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of block "
                f"{block} with {self.valid_count[block]} valid pages"
            )
        self.page_state[block, :] = PageState.FREE
        self.reverse_lpn[block, :] = -1
        self._wp[block] = 0
        count = self._ec[block] + 1
        self._ec[block] = count
        self.erases_performed += 1
        if count >= self.timing.erase_cycles:
            self._rt[block] = True

    def read_state_check(self, block: int, page: int, op: str = "read",
                         tag: Optional[str] = None) -> None:
        """Sanity check that a read targets a valid page."""
        if self._ps[block * self._ppb + page] != PageState.VALID:
            raise FlashStateError(
                f"element {self.element_id}: {op} (tag={tag}) of non-valid "
                f"page ({block}, {page}) state={self.page_state[block, page]}"
            )

    # ------------------------------------------------------------------
    # convenience issue helpers (state transition + timed command)
    # ------------------------------------------------------------------

    def read_page(
        self,
        block: int,
        page: int,
        nbytes: Optional[int] = None,
        tag: str = TAG_HOST,
        callback: Optional[Callable[[float], None]] = None,
    ) -> None:
        if self._ps[block * self._ppb + page] != PageState.VALID:
            self.read_state_check(block, page, tag=tag)  # raises with detail
        self.pages_read += 1
        if nbytes is None or nbytes == self._page_bytes:
            duration = self._page_read_us
        else:
            duration = self.timing.read_us(nbytes)
        fm = self.fault_model
        if fm is not None:
            steps = fm.draw_read_retries(block, page)
            if steps:
                # transient read error: each retry step re-reads the page
                # with shifted thresholds, paying escalating latency
                self.read_retries += steps
                duration += fm.retry_penalty_us(steps)
        self._issue(duration, tag, callback)

    def program_page(
        self,
        block: int,
        page: int,
        lpn: int,
        nbytes: Optional[int] = None,
        tag: str = TAG_HOST,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Program a page.  Returns False when fault injection failed the
        program: the page is burned (consumed, INVALID), the op's time is
        charged, and the caller's *callback* does NOT ride the op — the
        caller must redirect the write and retire the block."""
        # state transition inlined from program_state (one call per host
        # write; the checks are identical)
        ps = self._ps
        ppn = block * self._ppb + page
        if ps[ppn] != 0:  # PageState.FREE
            self.program_state(block, page, lpn, tag=tag)  # raises with detail
        wp = self._wp
        write_ptr = wp[block]
        if self.strict_program_order and page != write_ptr:
            self.program_state(block, page, lpn, tag=tag)  # raises with detail
        if nbytes is None or nbytes == self._page_bytes:
            duration = self._page_program_us
        else:
            duration = self.timing.program_us(nbytes)
        fm = self.fault_model
        if fm is not None and fm.draw_program_failure(block, page):
            ps[ppn] = 2  # PageState.INVALID: burned
            if page >= write_ptr:
                wp[block] = page + 1
            self._issue(duration, tag, None)
            return False
        ps[ppn] = 1  # PageState.VALID
        self._rl[ppn] = lpn
        self._vc[block] += 1
        if page >= write_ptr:
            wp[block] = page + 1
        self._mt[block] = self.sim.now
        self.pages_programmed += 1
        self._issue(duration, tag, callback)
        return True

    def erase_block(
        self,
        block: int,
        tag: str = TAG_CLEAN,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Erase a block.  Returns False when fault injection failed the
        erase: the block becomes a grown bad block (``retired`` set, pages
        left as-is, no cycle charged).  Time is still charged and the
        callback still fires — callers chain state machines off it — but
        the block must never be re-pooled."""
        fm = self.fault_model
        if fm is not None and fm.draw_erase_failure(block, self._ec[block]):
            if self._vc[block] != 0:
                self.erase_state(block, tag=tag)  # raises with full detail
            self._rt[block] = True
            self._issue(self._erase_cmd_us, tag, callback)
            return False
        self.erase_state(block, tag=tag)
        self._issue(self._erase_cmd_us, tag, callback)
        return True

    def copy_page(
        self,
        src_block: int,
        src_page: int,
        dst_block: int,
        dst_page: int,
        lpn: int,
        tag: str = TAG_CLEAN,
        callback: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Copy-back one valid page to a free page within this element and
        tag the destination with logical page *lpn*: a one-page
        :meth:`copy_run`.

        Returns False when fault injection failed the program half: the
        destination page is burned, the source page stays VALID (the data
        was never lost from the medium), time is charged, and the caller's
        *callback* does not ride the op — the caller retries elsewhere."""
        if not self.copy_run(src_block, (src_page,), dst_block, dst_page,
                             tag, callback):
            return False
        self._rl[dst_block * self._ppb + dst_page] = lpn
        return True

    def copy_run(
        self,
        src_block: int,
        src_pages,
        dst_block: int,
        dst_page: int,
        tag: str = TAG_CLEAN,
        callback: Optional[Callable[[float], None]] = None,
    ) -> int:
        """Copy-back the valid pages *src_pages* of *src_block*, in order,
        into consecutive free pages of *dst_block* from *dst_page* on: one
        COPY op per page, queued as one FIFO entry.

        Each destination page takes over its source page's logical tag and
        the source page becomes INVALID.  *callback* rides the last copy.
        Returns the number of pages copied.  A count short of
        ``len(src_pages)`` means fault injection failed the program half of
        the next copy: that destination page is burned, its time is charged
        without *callback*, its source page stays VALID (a failed copy-back
        can always be retried from it), and the run stops there."""
        # transitions inlined from read_state_check + invalidate_state +
        # program_state, and the FIFO append inlined from _issue: cleaning
        # moves every valid page of every victim through this loop
        ps = self._ps
        rl = self._rl
        wp = self._wp
        ppb = self._ppb
        write_ptr = wp[dst_block]
        if self.strict_program_order and dst_page != write_ptr:
            self.program_state(dst_block, dst_page, -1, op="copy", tag=tag)
        accum = self._accum
        acc = accum.get(tag)
        if acc is None:
            acc = accum[tag] = [0.0, 0]
        duration = self._page_copy_us
        fm = self.fault_model
        idle = self._inflight is None
        # the tail advances page by page, as one entry per page would
        drain_at = self.sim.now if idle else self.drain_at_us
        src_base = src_block * ppb
        dst_base = dst_block * ppb
        dst = first = dst_base + dst_page
        copied = 0
        for src_page in src_pages:
            src = src_base + src_page
            if ps[src] != 1:  # PageState.VALID
                self.read_state_check(src_block, src_page, op="copy", tag=tag)
            if ps[dst] != 0:  # PageState.FREE
                self.program_state(dst_block, dst - dst_base, -1, op="copy",
                                   tag=tag)
            drain_at += duration
            if fm is not None and fm.draw_program_failure(dst_block,
                                                          dst - dst_base):
                ps[dst] = 2  # PageState.INVALID: burned
                dst += 1
                break
            ps[src] = 2  # PageState.INVALID
            ps[dst] = 1  # PageState.VALID
            rl[dst] = rl[src]
            rl[src] = -1
            dst += 1
            copied += 1
        pages = dst - first
        if not pages:
            return 0
        if copied:
            self._vc[src_block] -= copied
            self._vc[dst_block] += copied
            self._mt[dst_block] = self.sim.now
        entry = (duration, acc,
                 callback if copied == len(src_pages) else None, pages)
        if idle:
            self._inflight = entry
            drain = self._drain
            drain.ticks = pages - 1
            drain.period = duration
            self.sim.reschedule(drain, self.sim.now + duration)
        else:
            self._queue.append(entry)
        self.drain_at_us = drain_at
        dst_page = dst - dst_base
        if dst_page > write_ptr:
            wp[dst_block] = dst_page
        self.pages_programmed += copied
        self.pages_read += pages
        return copied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlashElement {self.element_id} qd={self.queue_depth} "
            f"erases={self.erases_performed}>"
        )
