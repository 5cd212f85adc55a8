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
the parallelism the paper's Figure 1 describes.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Set

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_CLEAN, TAG_HOST
from repro.ftl.base import (
    BaseFTL,
    DeviceFullError,
    _ALLOC_EPOCH,
    complete_async,
)
from repro.ftl.cleaning import Cleaner, CleaningConfig
from repro.ftl.freepool import FreeBlockPool
from repro.ftl.wearlevel import WearConfig, WearLeveler
from repro.sim.engine import Simulator

__all__ = ["PageMappedFTL"]


class PageMappedFTL(BaseFTL):
    """Page-mapped log-structured FTL (see module docstring)."""

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
        super().__init__(sim, elements, user_logical_pages * lp_bytes)

        slots = math.ceil(user_logical_pages / self.n_gangs)
        self._maps = [np.full(slots, -1, dtype=np.int64) for _ in elements]
        #: memoryviews over _maps: plain-int scalar access on the hot path
        #: (same buffers — bulk numpy users stay coherent)
        self._mapv = [memoryview(m) for m in self._maps]
        self._pool: List[FreeBlockPool] = [
            FreeBlockPool(range(geom.blocks_per_element),
                          memoryview(el.erase_count))
            for el in elements
        ]
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

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size <= 0 or offset + size > self.logical_capacity_bytes:
            raise ValueError(
                f"range [{offset}, {offset + size}) outside logical capacity "
                f"{self.logical_capacity_bytes}"
            )

    def _gang_slot(self, lpn: int) -> tuple[int, int]:
        return lpn % self.n_gangs, lpn // self.n_gangs

    def map_for(self, e_idx: int) -> np.ndarray:
        return self._maps[e_idx]

    def free_pages(self, e_idx: int) -> int:
        return self._free[e_idx]

    def frontier_blocks(self, e_idx: int) -> List[int]:
        return list(self._frontier[e_idx].values())

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _pull_block(self, e_idx: int, temp: str) -> int:
        pool = self._pool[e_idx]
        if not pool:
            raise DeviceFullError(
                f"element {e_idx}: no erased blocks left "
                f"(free_pages={self._free[e_idx]})"
            )
        if temp == "cold":
            # cold data goes to the most-worn block: it will rarely be
            # rewritten, so parking it there stops further wear
            return pool.pop_max_wear()
        if self.wear_config.dynamic:
            return pool.pop_min_wear()
        return pool.pop_lifo()

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
            frontier = self._pull_block(e_idx, temp)
            frontiers[temp] = frontier
        first = wp[frontier]
        if count > ppb - first:
            count = ppb - first
        self._free[e_idx] -= count
        self.alloc_epoch = _ALLOC_EPOCH()
        return frontier, first, count

    def release_block(self, e_idx: int, block: int) -> None:
        """Return an erased block to the pool (erase already completed).

        Retired blocks — failed erases and wear-out — never re-pool: the
        element's spare area shrinks by the whole block, which is how grown
        bad blocks eventually exhaust the spares."""
        if self.elements[e_idx].retired[block]:
            self.stats.blocks_retired += 1
            self.alloc_epoch = _ALLOC_EPOCH()
            return
        self._pool[e_idx].push(block)
        self._free[e_idx] += self.geometry.pages_per_block
        self.alloc_epoch = _ALLOC_EPOCH()

    def retire_block(self, e_idx: int, block: int) -> None:
        """Grow a bad block: remove *block* from circulation permanently.

        Still-valid pages are rescued — copied to the frontier with fault
        injection suspended, modelling the verified writes a controller
        uses to save data off a failing block — so the mapping stays
        intact.  Pages that cannot be rescued because the element is out
        of spare pages stay readable in place (the map keeps pointing at
        them); only new programs are forbidden."""
        el = self.elements[e_idx]
        if el.retired[block]:
            return
        el.retired[block] = True
        self.stats.blocks_retired += 1
        frontiers = self._frontier[e_idx]
        for temp, frontier in list(frontiers.items()):
            if frontier == block:
                del frontiers[temp]
                self._free[e_idx] -= self._ppb - int(el.write_ptr[block])
        mapv = self._mapv[e_idx]
        ppb = self._ppb
        fm = el.fault_model
        el.fault_model = None
        try:
            for page in np.nonzero(el.page_state[block] == PageState.VALID)[0]:
                page = int(page)
                slot = int(el.reverse_lpn[block, page])
                try:
                    dst_block, dst_page, _ = self.allocate_run(e_idx, 1)
                except DeviceFullError:
                    break  # unrescued pages stay readable in place
                el.copy_page(block, page, dst_block, dst_page, slot,
                             tag=TAG_CLEAN)
                mapv[slot] = dst_block * ppb + dst_page
                self.stats.rescued_pages += 1
                self.stats.flash_pages_programmed += 1
        finally:
            el.fault_model = fm
        self.alloc_epoch = _ALLOC_EPOCH()

    def _program_redirect(self, e_idx: int, bad_block: int, slot: int,
                          temp: str, tag: str, callback) -> int:
        """A program on *bad_block* failed: retire it and redirect the page
        to a fresh frontier page.  Returns the new ppn, or -1 when no spare
        page could be allocated — the loss is counted, ``write_error`` is
        raised for the host, and *callback* still fires."""
        el = self.elements[e_idx]
        stats = self.stats
        while True:
            stats.program_failures += 1
            self.retire_block(e_idx, bad_block)
            try:
                block, page, _ = self.allocate_run(e_idx, 1, temp)
            except DeviceFullError:
                stats.failed_pages += 1
                self._note_write_error()
                complete_async(self.sim, callback)
                return -1
            if el.program_page(block, page, slot, tag=tag, callback=callback):
                return block * self._ppb + page
            bad_block = block

    def note_wear_changed(self, e_idx: Optional[int] = None) -> None:
        """Re-key the free-block wear ordering of one element (or all).

        Call after mutating ``element.erase_count`` outside the normal
        erase path (tests, fault injection, imported wear state); the pull
        structures cache wear keys because production erases can only touch
        blocks that are outside the pool.
        """
        if e_idx is not None:
            self._pool[e_idx].rekey()
        else:
            for pool in self._pool:
                pool.rekey()

    def pull_worn_free_block(self, e_idx: int) -> int:
        """Remove the most-worn erased block from the pool (for static
        wear-leveling migration); the whole block leaves the free count."""
        pool = self._pool[e_idx]
        if not pool:
            return -1
        block = pool.pop_max_wear()
        self._free[e_idx] -= self.geometry.pages_per_block
        self.alloc_epoch = _ALLOC_EPOCH()
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
            if old >= 0:
                old_block = old // ppb
                old_page = old % ppb
                if size < lp:
                    # merge read: the old page contributes surviving bytes
                    join = self.acquire_join(done)
                    join.expect(2)
                    callback = join.child_done
                    el.read_page(old_block, old_page, nbytes=lp, tag=tag,
                                 callback=callback)
                    stats.rmw_pages_read += 1
                el.invalidate_state(old_block, old_page)
            new_block, new_page, _ = self.allocate_run(e_idx, 1, temp)
            if el.program_page(new_block, new_page, slot, tag=tag,
                               callback=callback):
                mapv[slot] = new_block * ppb + new_page
                stats.flash_pages_programmed += 1
            else:
                ppn = self._program_redirect(e_idx, new_block, slot, temp,
                                             tag, callback)
                mapv[slot] = ppn  # -1: data lost, the slot reads as unwritten
                if ppn >= 0:
                    stats.flash_pages_programmed += 1
            stats.host_writes += 1
            self._maybe_clean(e_idx)
            return

        join = self.acquire_join(done)
        child_done = join.child_done
        expect = join.expect
        stats = self.stats
        elements = self.elements
        mapvs = self._mapv
        allocate_run = self.allocate_run
        fp = self.geometry.page_bytes
        ppb = self._ppb
        shards = self.shards
        n_gangs = self.n_gangs
        end = offset + size
        touched: Set[int] = set()

        for lpn in range(offset // lp, (end - 1) // lp + 1):
            page_base = lpn * lp
            a = offset - page_base
            if a < 0:
                a = 0
            b = end - page_base
            if b > lp:
                b = lp
            slot = lpn // n_gangs
            e_base = (lpn % n_gangs) * shards
            shard_base = 0
            for j in range(shards):
                e_idx = e_base + j
                el = elements[e_idx]
                mapv = mapvs[e_idx]
                old = mapv[slot]
                ca = a if a > shard_base else shard_base
                shard_base += fp
                cb = b if b < shard_base else shard_base
                covered = cb - ca
                if covered > 0:
                    stats.host_pages_written += 1
                if old >= 0:
                    old_block = old // ppb
                    old_page = old % ppb
                    if covered < fp:
                        # merge read: the old shard contributes surviving
                        # bytes
                        expect()
                        el.read_page(old_block, old_page, nbytes=fp, tag=tag,
                                     callback=child_done)
                        stats.rmw_pages_read += 1
                    el.invalidate_state(old_block, old_page)
                new_block, new_page, _ = allocate_run(e_idx, 1, temp)
                expect()
                if el.program_page(
                    new_block, new_page, slot, tag=tag, callback=child_done
                ):
                    mapv[slot] = new_block * ppb + new_page
                    stats.flash_pages_programmed += 1
                else:
                    ppn = self._program_redirect(e_idx, new_block, slot,
                                                 temp, tag, child_done)
                    mapv[slot] = ppn
                    if ppn >= 0:
                        stats.flash_pages_programmed += 1
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

        join = self.acquire_join(done)
        child_done = join.child_done
        expect = join.expect
        stats = self.stats
        elements = self.elements
        mapvs = self._mapv
        fp = self.geometry.page_bytes
        ppb = self._ppb
        shards = self.shards
        n_gangs = self.n_gangs
        end = offset + size

        for lpn in range(offset // lp, (end - 1) // lp + 1):
            page_base = lpn * lp
            a = offset - page_base
            if a < 0:
                a = 0
            b = end - page_base
            if b > lp:
                b = lp
            slot = lpn // n_gangs
            e_base = (lpn % n_gangs) * shards
            shard_base = 0
            for j in range(shards):
                ca = a if a > shard_base else shard_base
                shard_base += fp
                cb = b if b < shard_base else shard_base
                if cb - ca <= 0:
                    continue
                stats.host_pages_read += 1
                e_idx = e_base + j
                ppn = mapvs[e_idx][slot]
                if ppn < 0:
                    continue  # never written: served from the controller
                expect()
                elements[e_idx].read_page(
                    ppn // ppb,
                    ppn % ppb,
                    nbytes=cb - ca,
                    tag=tag,
                    callback=child_done,
                )
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

    def pages_needed(self, offset: int, size: int) -> dict[int, int]:
        """Programs per element a write of this range will issue."""
        lp = self.logical_page_bytes
        end = offset + size
        needed: dict[int, int] = {}
        for lpn in range(offset // lp, (end - 1) // lp + 1):
            gang, _slot = self._gang_slot(lpn)
            for j in range(self.shards):
                e_idx = gang * self.shards + j
                needed[e_idx] = needed.get(e_idx, 0) + 1
        return needed

    def can_accept_write(self, offset: int, size: int) -> bool:
        if self.read_only:
            return False
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            e_idx = (offset // lp) % self.n_gangs
            return self._free[e_idx] - 1 >= self.reserve_pages
        for e_idx, count in self.pages_needed(offset, size).items():
            if self._free[e_idx] - count < self.reserve_pages:
                return False
        return True

    def write_wedged(self, offset: int, size: int) -> bool:
        cleaner = self.cleaner
        for e_idx, count in self.pages_needed(offset, size).items():
            if self._free[e_idx] - count >= self.reserve_pages:
                continue
            if cleaner._no_space[e_idx]:
                # a clean already died for want of a destination page
                return True
            if cleaner._active[e_idx]:
                return False
            victim = cleaner.select_victim(e_idx)
            if victim < 0:
                return True
            if (self._free[e_idx] == 0
                    and int(self.elements[e_idx].valid_count[victim]) > 0):
                # a victim exists, but its valid pages have nowhere to go
                # (greedy picks the min-valid candidate, so no victim is
                # better); cleaning cannot free anything either
                return True
            # cleaning can still (eventually) raise the free count
            return False
        return False

    def ensure_space(self, offset: int, size: int) -> None:
        for e_idx, count in self.pages_needed(offset, size).items():
            if self._free[e_idx] - count < self.reserve_pages:
                self.cleaner.maybe_clean(e_idx, force=True)

    def priority_idle(self) -> None:
        self.cleaner.resume_paused()

    def elements_for_range(self, offset: int, size: int) -> List[int]:
        lp = self.logical_page_bytes
        if self.shards == 1 and (offset % lp) + size <= lp:
            return [(offset // lp) % self.n_gangs]
        fp = self.geometry.page_bytes
        end = offset + size
        out: Set[int] = set()
        for lpn in range(offset // lp, (end - 1) // lp + 1):
            page_base = lpn * lp
            a = max(offset, page_base) - page_base
            b = min(end, page_base + lp) - page_base
            gang, _slot = self._gang_slot(lpn)
            for j in range(self.shards):
                if min(b, (j + 1) * fp) - max(a, j * fp) > 0:
                    out.add(gang * self.shards + j)
        return sorted(out)

    def mapped_ppn(self, lpn: int, shard: int = 0) -> int:
        """Physical page of one shard of *lpn* (-1 if unmapped); test hook."""
        gang, slot = self._gang_slot(lpn)
        return int(self._maps[gang * self.shards + shard][slot])

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def _consistency_shards(self) -> int:
        return len(self.elements)

    def _check_shard(self, index: int) -> None:
        """Verify one element's map/reverse-map agreement and free
        accounting (``check_consistency`` drives the full/sampled sweep).

        Raises AssertionError on the first violation; the test suite calls
        the sweep after every workload it runs.
        """
        e_idx = index
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
        # per-block valid counts agree with the state array
        recount = (el.page_state == PageState.VALID).sum(axis=1)
        assert (recount == el.valid_count).all(), (
            f"element {e_idx}: valid_count out of sync"
        )
        # free accounting: pool blocks contribute ppb, frontiers their tail
        free = sum(
            ppb - int(el.write_ptr[b]) for b in self._pool[e_idx]
        )
        for frontier in self._frontier[e_idx].values():
            free += ppb - int(el.write_ptr[frontier])
        assert free == self._free[e_idx], (
            f"element {e_idx}: computed free {free} != tracked "
            f"{self._free[e_idx]}"
        )
