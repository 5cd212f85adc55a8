"""Log-structured, page-mapped FTL with striped logical pages.

This is the FTL of the paper's simulated SSD (after Agrawal et al. 2008):

* The mapping unit is a **logical page** of configurable size.  With
  ``logical_page_bytes`` equal to the flash page (4 KB) this is a plain
  page-mapped FTL.  With a larger logical page — e.g. the paper's Table 3
  configuration, a 32 KB logical page spanning a gang of eight packages —
  each logical page is striped one flash page ("shard") per element, and any
  sub-logical-page write becomes a read-modify-write of the whole logical
  page.  That amplification is the subject of §3.4.
* Writes always go to the per-element write frontier (log-structured); the
  superseded flash pages become invalid and are reclaimed by the cleaner
  (:mod:`repro.ftl.cleaning`).
* FREE (TRIM) notifications, when the device is configured to process them,
  unmap logical pages so cleaning and wear-leveling stop preserving dead
  data — the paper's *informed cleaning* (§3.5).

Element/shard layout
--------------------
With ``E`` elements and ``S = logical_page_bytes / flash_page_bytes`` shards
per logical page, elements are statically partitioned into ``E / S`` gangs.
Logical page ``lpn`` lives in gang ``lpn % n_gangs``, shard ``j`` on element
``gang * S + j``, at per-element map slot ``lpn // n_gangs``.  Sequential
logical pages therefore rotate across gangs (page-level striping), matching
the parallelism the paper's Figure 1 describes.  ``_pages`` walks a host
range in this layout for every path but ``trim`` and the single-page forks.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_HOST
from repro.ftl.base import (
    BaseFTL,
    CompletionJoin,
    DeviceFullError,
    complete_async,
)
from repro.ftl.cleaning import Cleaner, CleaningConfig
from repro.ftl.wearlevel import WearConfig, WearLeveler
from repro.sim.engine import Simulator

__all__ = ["PageMappedFTL"]


# Wear-ordered pulls scan the pool and read each block's erase count live
# (*wear* maps block -> count), so a count may change while its block is
# pooled.  Ties go to the earliest pool entry: ``min``/``max`` keep the
# first of equal keys.  Pools hold a few blocks once a device is aged, so
# a scan beats any index kept in step with the counts.

def pop_least_worn(pool: List[int], wear) -> int:
    """Remove and return the least-worn block of *pool*."""
    block = min(pool, key=wear.__getitem__)
    pool.remove(block)
    return block


def pop_most_worn(pool: List[int], wear) -> int:
    """Remove and return the most-worn block of *pool*."""
    block = max(pool, key=wear.__getitem__)
    pool.remove(block)
    return block


class PageMappedFTL(BaseFTL):
    """Page-mapped log-structured FTL (see module docstring).  Admission
    counts free pages beyond ``reserve_pages``; the cleaner reclaims."""

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        logical_page_bytes: Optional[int] = None,
        spare_fraction: float = 0.10,
        cleaning: Optional[CleaningConfig] = None,
        wear: Optional[WearConfig] = None,
    ) -> None:
        geom = elements[0].geometry
        flash_page = geom.page_bytes
        lp_bytes = flash_page if logical_page_bytes is None else logical_page_bytes
        if lp_bytes % flash_page:
            raise ValueError(
                f"logical page ({lp_bytes}) must be a multiple of the flash "
                f"page ({flash_page})"
            )
        shards = lp_bytes // flash_page
        if len(elements) % shards:
            raise ValueError(
                f"element count {len(elements)} not divisible by shard count "
                f"{shards} (logical page {lp_bytes} over {flash_page} pages)"
            )
        if not 0.0 < spare_fraction < 1.0:
            raise ValueError(f"spare_fraction must be in (0, 1), got {spare_fraction}")

        self.logical_page_bytes = lp_bytes
        self.shards = shards
        self.n_gangs = len(elements) // shards

        total_flash_pages = len(elements) * geom.pages_per_element
        user_logical_pages = int(total_flash_pages * (1.0 - spare_fraction)) // shards
        if user_logical_pages <= 0:
            raise ValueError("device too small for the requested spare fraction")
        self.user_logical_pages = user_logical_pages
        # each element is its own allocation group: a row is one block
        super().__init__(sim, elements, user_logical_pages * lp_bytes)

        slots = math.ceil(user_logical_pages / self.n_gangs)
        self._maps = [np.full(slots, -1, dtype=np.int64) for _ in elements]
        #: memoryviews over _maps: plain-int scalar access on the hot path
        #: (same buffers — bulk numpy users stay coherent)
        self._mapv = [memoryview(m) for m in self._maps]
        self._frontier: List[dict] = [{} for _ in elements]
        self._ppb = geom.pages_per_block
        self._free: List[int] = [geom.pages_per_element for _ in elements]
        self.spare_fraction = spare_fraction
        #: admission headroom: one block of in-flight cleaning copies plus
        #: slack, clamped to half the per-element spare area — a device
        #: legitimately full of valid data must still accept writes.
        spare_per_element = geom.pages_per_element - -(
            -user_logical_pages * shards // len(elements)
        )
        self.reserve_pages = min(
            geom.pages_per_block + 4, max(2, spare_per_element // 2)
        )

        self.wear_config = wear if wear is not None else WearConfig()
        self.cleaner = Cleaner(self, cleaning if cleaning is not None else CleaningConfig())
        self.wear_leveler = WearLeveler(self, self.wear_config)
        #: prebound: the single-page write fast path probes it per write
        self._maybe_clean = self.cleaner.maybe_clean

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def map_for(self, e_idx: int) -> np.ndarray:
        return self._maps[e_idx]

    def free_pages(self, e_idx: int) -> int:
        return self._free[e_idx]

    def frontier_blocks(self, e_idx: int) -> List[int]:
        return list(self._frontier[e_idx].values())

    def _pages(self, offset: int, size: int) -> Iterator[Tuple[int, int, int, int]]:
        """``(first, slot, a, b)`` for each logical page the range touches,
        where ``[a, b)`` is the part of the range inside that page and
        shard ``j`` of the page lives on element ``first + j`` at map slot
        ``slot``."""
        lp = self.logical_page_bytes
        shards = self.shards
        n_gangs = self.n_gangs
        end = offset + size
        for lpn in range(offset // lp, (end - 1) // lp + 1):
            base = lpn * lp
            yield ((lpn % n_gangs) * shards, lpn // n_gangs,
                   max(offset, base) - base, min(end, base + lp) - base)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _pull_block(self, e_idx: int, temp: str) -> int:
        pool = self._pool[e_idx]
        if temp == "cold":
            # cold data goes to the most-worn block: it will rarely be
            # rewritten, so parking it there stops further wear
            return pop_most_worn(pool, self.elements[e_idx]._ec)
        if self.wear_config.dynamic:
            return pop_least_worn(pool, self.elements[e_idx]._ec)
        return pool.pop()

    def allocate_run(self, e_idx: int, count: int,
                     temp: str = "hot") -> tuple[int, int, int]:
        """Take up to *count* consecutive frontier pages of *e_idx*; pulls
        a new erased block when the frontier is full.

        Returns ``(block, first_page, n)`` with ``1 <= n <= count``: a run
        never crosses a block boundary, so when the frontier block has
        fewer than *count* free pages the run stops at its end and the
        caller allocates again (pulling a new erased block then, exactly
        as *count* successive single-page allocations would).  All *n*
        pages leave the free count; a caller that ends up using fewer must
        add the rest back to ``_free``."""
        frontiers = self._frontier[e_idx]
        frontier = frontiers.get(temp)
        wp = self.elements[e_idx]._wp
        ppb = self._ppb
        if frontier is None or wp[frontier] >= ppb:
            frontier = self._pull_row(e_idx, temp)
            frontiers[temp] = frontier
        first = wp[frontier]
        if count > ppb - first:
            count = ppb - first
        self._free[e_idx] -= count
        return frontier, first, count

    # block lifecycle hooks (see BaseFTL): rescued pages and retried
    # programs go to the next frontier page

    def _row_pooled(self, e_idx: int) -> None:
        self._free[e_idx] += self._ppb

    def _rescue_row(self, e_idx: int, block: int) -> int:
        el = self.elements[e_idx]
        if el.retired[block]:
            return -1
        frontiers = self._frontier[e_idx]
        for temp, frontier in list(frontiers.items()):
            if frontier == block:
                del frontiers[temp]
                self._free[e_idx] -= self._ppb - int(el.write_ptr[block])
        return block

    def _spare_page(self, e_idx: int, dest: int, page: int,
                    temp: str = "hot") -> Optional[tuple[int, int]]:
        try:
            block, page, _ = self.allocate_run(e_idx, 1, temp)
        except DeviceFullError:
            return None
        return block, page

    def _page_moved(self, e_idx: int, lpn: int, row: int, page: int) -> None:
        self._mapv[e_idx][lpn] = row * self._ppb + page

    def pull_worn_free_block(self, e_idx: int) -> int:
        """Remove the most-worn erased block from the pool (for static
        wear-leveling migration); the whole block leaves the free count."""
        pool = self._pool[e_idx]
        if not pool:
            return -1
        block = pop_most_worn(pool, self.elements[e_idx]._ec)
        self._free[e_idx] -= self.geometry.pages_per_block
        return block

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------

    def write(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
        temp: str = "hot",
    ) -> None:
        self._check_range(offset, size)
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            # fast path: one flash page on one element — the overwhelmingly
            # common shape for a 4 KB page-mapped device.  A full-page
            # overwrite needs exactly one program, so the request's ``done``
            # rides directly on the flash op with no CompletionJoin.
            stats = self.stats
            lpn = offset // lp
            e_idx = lpn % self.n_gangs
            slot = lpn // self.n_gangs
            el = self.elements[e_idx]
            mapv = self._mapv[e_idx]
            ppb = self._ppb
            old = mapv[slot]
            stats.host_pages_written += 1
            callback = done
            if old >= 0 and size < lp:
                # merge read: the old page contributes surviving bytes
                join = CompletionJoin(self.sim, done)
                join.expect(2)
                join.arm()
                callback = join.child_done
                el.read_page(old // ppb, old % ppb, nbytes=lp, tag=tag,
                             callback=callback)
                stats.rmw_pages_read += 1
            # allocate before superseding the old copy: a write refused for
            # want of an erased block leaves the old copy mapped
            new_block, new_page, _ = self.allocate_run(e_idx, 1, temp)
            if old >= 0:
                el.invalidate_state(old // ppb, old % ppb)
            if el.program_page(new_block, new_page, slot, tag=tag,
                               callback=callback):
                mapv[slot] = new_block * ppb + new_page
                stats.flash_pages_programmed += 1
            else:
                new_block, new_page = self._retry_program(
                    e_idx, new_block, new_page, slot, tag, callback, temp)
                # -1: data lost, the slot reads as unwritten
                mapv[slot] = (new_block * ppb + new_page
                              if new_page >= 0 else -1)
            stats.host_writes += 1
            self._maybe_clean(e_idx)
            return

        join = CompletionJoin(self.sim, done)
        child_done = join.child_done
        expect = join.expect
        stats = self.stats
        elements = self.elements
        mapvs = self._mapv
        allocate_run = self.allocate_run
        fp = self.geometry.page_bytes
        ppb = self._ppb
        shards = range(self.shards)
        touched: Set[int] = set()

        # a write reprograms every shard of each logical page it touches
        for first, slot, a, b in self._pages(offset, size):
            for j in shards:
                e_idx = first + j
                el = elements[e_idx]
                mapv = mapvs[e_idx]
                old = mapv[slot]
                covered = min(b, (j + 1) * fp) - max(a, j * fp)
                if covered > 0:
                    stats.host_pages_written += 1
                if old >= 0 and covered < fp:
                    # merge read: the old shard contributes surviving bytes
                    expect()
                    el.read_page(old // ppb, old % ppb, nbytes=fp, tag=tag,
                                 callback=child_done)
                    stats.rmw_pages_read += 1
                new_block, new_page, _ = allocate_run(e_idx, 1, temp)
                if old >= 0:
                    el.invalidate_state(old // ppb, old % ppb)
                expect()
                if el.program_page(
                    new_block, new_page, slot, tag=tag, callback=child_done
                ):
                    mapv[slot] = new_block * ppb + new_page
                    stats.flash_pages_programmed += 1
                else:
                    new_block, new_page = self._retry_program(
                        e_idx, new_block, new_page, slot, tag, child_done,
                        temp)
                    mapv[slot] = (new_block * ppb + new_page
                                  if new_page >= 0 else -1)
                touched.add(e_idx)

        stats.host_writes += 1
        join.arm()
        maybe_clean = self.cleaner.maybe_clean
        # sorted(): cleaning decisions must not depend on set iteration order
        for e_idx in sorted(touched):
            maybe_clean(e_idx)

    def read(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
    ) -> None:
        self._check_range(offset, size)
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            # fast path mirroring write(): one flash page on one element,
            # ``done`` rides directly on the single read op (never-written
            # space completes via a zero-delay event, preserving the
            # "no re-entrant done" contract)
            stats = self.stats
            lpn = offset // lp
            stats.host_pages_read += 1
            stats.host_reads += 1
            ppn = self._mapv[lpn % self.n_gangs][lpn // self.n_gangs]
            if ppn < 0:
                complete_async(self.sim, done)
                return
            ppb = self._ppb
            self.elements[lpn % self.n_gangs].read_page(
                ppn // ppb, ppn % ppb, nbytes=size, tag=tag, callback=done
            )
            return

        join = CompletionJoin(self.sim, done)
        child_done = join.child_done
        expect = join.expect
        stats = self.stats
        elements = self.elements
        mapvs = self._mapv
        fp = self.geometry.page_bytes
        ppb = self._ppb

        # a read visits only the shards the range covers
        for first, slot, a, b in self._pages(offset, size):
            for j in range(a // fp, (b - 1) // fp + 1):
                stats.host_pages_read += 1
                ppn = mapvs[first + j][slot]
                if ppn < 0:
                    continue  # never written: served from the controller
                expect()
                elements[first + j].read_page(
                    ppn // ppb, ppn % ppb,
                    nbytes=min(b, (j + 1) * fp) - max(a, j * fp),
                    tag=tag, callback=child_done)
        stats.host_reads += 1
        join.arm()

    def trim(self, offset: int, size: int) -> None:
        """Process a FREE notification: unmap every wholly-covered logical
        page so its flash pages become reclaimable without copying."""
        self._check_range(offset, size)
        lp = self.logical_page_bytes
        geom = self.geometry
        first = -(-offset // lp)  # ceil: partial head page is kept
        last_excl = (offset + size) // lp
        self.stats.trims += 1
        for lpn in range(first, last_excl):
            gang, slot = self._gang_slot(lpn)
            e_base = gang * self.shards
            if self._maps[e_base][slot] < 0:
                continue
            for j in range(self.shards):
                e_idx = e_base + j
                ppn = int(self._maps[e_idx][slot])
                if ppn >= 0:
                    self.elements[e_idx].invalidate_state(
                        geom.block_of(ppn), geom.page_of(ppn)
                    )
                    self._maps[e_idx][slot] = -1
                    self.stats.trimmed_pages += 1

    # ------------------------------------------------------------------
    # admission control / introspection
    # ------------------------------------------------------------------

    def _needed(self, offset: int, size: int) -> dict[int, int]:
        """Programs per element a write of this range will issue."""
        needed: dict[int, int] = {}
        for first, _slot, _a, _b in self._pages(offset, size):
            for e_idx in range(first, first + self.shards):
                needed[e_idx] = needed.get(e_idx, 0) + 1
        return needed

    def can_accept_write(self, offset: int, size: int) -> bool:
        if self.read_only:
            return False
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            e_idx = (offset // lp) % self.n_gangs
            return (self._free[e_idx] - self._promised[e_idx] - 1
                    >= self.reserve_pages)
        return super().can_accept_write(offset, size)

    def promise(self, offset: int, size: int, count: int) -> None:
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            self._promised[(offset // lp) % self.n_gangs] += count
            return
        super().promise(offset, size, count)

    def _headroom(self, e_idx: int) -> int:
        return self._free[e_idx] - self.reserve_pages

    def _can_reclaim(self, e_idx: int) -> bool:
        return self.cleaner.can_reclaim(e_idx)

    def _reclaim(self, e_idx: int) -> None:
        self.cleaner.maybe_clean(e_idx, force=True)

    def priority_idle(self) -> None:
        self.cleaner.priority_drained()

    def elements_for_range(self, offset: int, size: int) -> List[int]:
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            return [(offset // lp) % self.n_gangs]
        fp = self.geometry.page_bytes
        out: Set[int] = set()
        for first, _slot, a, b in self._pages(offset, size):
            out.update(range(first + a // fp, first + (b - 1) // fp + 1))
        return sorted(out)

    def mapped_ppn(self, lpn: int, shard: int = 0) -> int:
        """Physical page of one shard of *lpn* (-1 if unmapped); test hook."""
        gang, slot = self._gang_slot(lpn)
        return int(self._maps[gang * self.shards + shard][slot])

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _check_shard(self, e_idx: int) -> None:
        """Verify one element's map/reverse-map agreement and free
        accounting (``check_consistency`` sweeps every element).

        Raises AssertionError on the first violation; the test suite calls
        the sweep after every workload it runs.
        """
        self._check_element(e_idx)
        geom = self.geometry
        ppb = geom.pages_per_block
        el = self.elements[e_idx]
        emap = self._maps[e_idx]
        # every mapped slot points at a VALID page tagged with the slot
        mapped = np.nonzero(emap >= 0)[0]
        for slot in mapped:
            ppn = int(emap[slot])
            blk, pg = geom.block_of(ppn), geom.page_of(ppn)
            assert el.page_state[blk, pg] == PageState.VALID, (
                f"element {e_idx} slot {slot}: mapped ppn {ppn} not VALID"
            )
            assert el.reverse_lpn[blk, pg] == slot, (
                f"element {e_idx} slot {slot}: reverse tag "
                f"{el.reverse_lpn[blk, pg]} != slot"
            )
        # every VALID page is mapped back from its reverse tag
        valid_total = int((el.page_state == PageState.VALID).sum())
        assert valid_total == len(mapped), (
            f"element {e_idx}: {valid_total} VALID pages but "
            f"{len(mapped)} mapped slots"
        )
        # free accounting: pooled (erased) blocks contribute ppb, frontiers
        # their tail
        free = ppb * len(self._pool[e_idx])
        for frontier in self._frontier[e_idx].values():
            free += ppb - int(el.write_ptr[frontier])
        assert free == self._free[e_idx], (
            f"element {e_idx}: computed free {free} != tracked "
            f"{self._free[e_idx]}"
        )
