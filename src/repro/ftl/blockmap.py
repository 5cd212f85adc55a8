"""Block-mapped FTL: the low-end device model behind S2slc/S3slc and Figure 2.

The mapping unit is a whole **stripe**: one erase block per element of a
gang, page-interleaved across the gang (byte ``i`` of a stripe lives in flash
page ``i // page_bytes``; page ``p`` lives on element ``p % S`` at local page
``p // S``).  The paper's S2slc device behaves this way with a 1 MB stripe.

Write behaviour, which produces both the catastrophic random-write bandwidth
in Table 2 and the saw-tooth of Figure 2:

* a write that only touches never-written pages of its stripe programs them
  in place (sequential streams therefore run at near-full speed);
* any overwrite of live data triggers a **read-modify-erase-write cycle** of
  the *entire stripe*: surviving pages are copied into a freshly-erased
  stripe, the new data is merged in, and the old stripe is erased in the
  background.  A 512-byte overwrite thus moves a full stripe of data.

There is no separate cleaner: reclamation is inline (the erase after each
RMW), as on the simple devices this models.

Stripe rows run the block lifecycle shared with the page-mapped FTL (a
per-gang list of erased rows pulled LIFO, background erase,
retire-and-rescue, program retry; see :class:`repro.ftl.base.BaseFTL`); a
gang is the lifecycle's allocation group.  This module adds the row map
and the host path, which walks a byte range stripe by stripe for ``read``,
``trim`` and ``write``.  Admission counts pooled rows beyond
``reserve_rows``; only the background erases reclaim.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_CLEAN, TAG_HOST
from repro.ftl.base import BaseFTL, CompletionJoin
from repro.sim.engine import Simulator

__all__ = ["BlockMappedFTL"]


class BlockMappedFTL(BaseFTL):
    """Stripe-granularity mapping with read-modify-erase-write (see module
    docstring)."""

    #: rows a write may consume before stalling (frontier + one RMW)
    reserve_rows = 2

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        gang_size: Optional[int] = None,
        spare_fraction: float = 0.06,
    ) -> None:
        shards = len(elements) if gang_size is None else gang_size
        if shards <= 0 or len(elements) % shards:
            raise ValueError(
                f"element count {len(elements)} not divisible by gang size {shards}"
            )
        if not 0.0 < spare_fraction < 1.0:
            raise ValueError(f"spare_fraction must be in (0, 1), got {spare_fraction}")
        geom = elements[0].geometry
        user_rows = int(geom.blocks_per_element * (1.0 - spare_fraction))
        if user_rows <= 0:
            raise ValueError("device too small for the requested spare fraction")
        self.shards = shards
        self.n_gangs = len(elements) // shards
        self.stripe_bytes = shards * geom.block_bytes
        self.pages_per_stripe = shards * geom.pages_per_block
        self.user_rows_per_gang = user_rows
        super().__init__(sim, elements,
                         self.n_gangs * user_rows * self.stripe_bytes, shards)

        # in-place page programming at arbitrary offsets (SLC-era behaviour)
        for el in elements:
            el.strict_program_order = False

        self._maps = [
            np.full(user_rows, -1, dtype=np.int64) for _ in range(self.n_gangs)
        ]

    # -- address helpers -------------------------------------------------

    def _element(self, gang: int, page_in_stripe: int) -> Tuple[FlashElement, int]:
        """(element, local page) for a stripe-relative flash page index."""
        j = page_in_stripe % self.shards
        local = page_in_stripe // self.shards
        return self.elements[gang * self.shards + j], local

    def _stripes(self, offset: int, size: int) -> Iterator[Tuple[int, int, int, int]]:
        """``(gang, slot, a, b)`` for each stripe the range touches, where
        ``[a, b)`` is the part of the range inside that stripe."""
        sb = self.stripe_bytes
        end = offset + size
        for lbn in range(offset // sb, (end - 1) // sb + 1):
            base = lbn * sb
            gang, slot = self._gang_slot(lbn)
            yield gang, slot, max(offset, base) - base, min(end, base + sb) - base

    # -- host path ---------------------------------------------------------

    def read(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
    ) -> None:
        """Read each VALID page of the mapped rows; holes cost no flash
        work."""
        self._check_range(offset, size)
        fp = self.geometry.page_bytes
        stats = self.stats
        join = CompletionJoin(self.sim, done)
        for gang, slot, a, b in self._stripes(offset, size):
            pages = range(a // fp, (b - 1) // fp + 1)
            stats.host_pages_read += len(pages)
            row = int(self._maps[gang][slot])
            if row < 0:
                continue
            for p in pages:
                el, local = self._element(gang, p)
                if el.page_state[row, local] != PageState.VALID:
                    continue
                join.expect()
                el.read_page(row, local,
                             nbytes=min(b, (p + 1) * fp) - max(a, p * fp),
                             tag=tag, callback=join.child_done)
        stats.host_reads += 1
        join.arm()

    def write(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]] = None,
        tag: str = TAG_HOST,
        temp: str = "hot",
    ) -> None:
        """Program the pages in place when the stripe is fresh or they are
        all still free (sequential streams run at near-full speed); any
        other write runs the read-modify-erase-write cycle."""
        self._check_range(offset, size)
        fp = self.geometry.page_bytes
        stats = self.stats
        join = CompletionJoin(self.sim, done)
        for gang, slot, a, b in self._stripes(offset, size):
            p0, p1 = a // fp, (b - 1) // fp
            stats.host_pages_written += p1 - p0 + 1
            row = int(self._maps[gang][slot])
            if row < 0:
                row = self._pull_row(gang)
                self._maps[gang][slot] = row
            elif not self._all_free(gang, row, p0, p1):
                self._rmw(gang, slot, row, a, b, join, tag)
                continue
            for p in range(p0, p1 + 1):
                join.expect()
                row = self._program(gang, row, p, slot, tag, join.child_done)
        stats.host_writes += 1
        join.arm()

    def trim(self, offset: int, size: int) -> None:
        """FREE notification: wholly-covered VALID pages are invalidated,
        and a wholly-covered stripe is unmapped and its row erased."""
        self._check_range(offset, size)
        sb = self.stripe_bytes
        fp = self.geometry.page_bytes
        stats = self.stats
        stats.trims += 1
        for gang, slot, a, b in self._stripes(offset, size):
            row = int(self._maps[gang][slot])
            if row < 0:
                continue
            for p in range(-(-a // fp), b // fp):
                el, local = self._element(gang, p)
                if el.page_state[row, local] == PageState.VALID:
                    el.invalidate_state(row, local)
                    stats.trimmed_pages += 1
            if a == 0 and b == sb:
                self._maps[gang][slot] = -1
                self._erase_row(gang, row, TAG_CLEAN, self._space_freed)

    def _all_free(self, gang: int, row: int, p0: int, p1: int) -> bool:
        for p in range(p0, p1 + 1):
            el, local = self._element(gang, p)
            if el.page_state[row, local] != PageState.FREE:
                return False
        return True

    def _rmw(
        self,
        gang: int,
        slot: int,
        old_row: int,
        a: int,
        b: int,
        join: CompletionJoin,
        tag: str,
    ) -> None:
        """The read-modify-erase-write cycle of §3.4.

        Surviving pages move by copy-back (same element, same local page);
        partially-overwritten pages need a real read to merge with host
        bytes; fully-overwritten pages are programmed directly.  The old
        stripe is erased in the background afterwards.
        """
        fp = self.geometry.page_bytes
        new_row = self._pull_row(gang)
        for p in range(self.pages_per_stripe):
            el, local = self._element(gang, p)
            state = el.page_state[old_row, local]
            ca = max(a, p * fp)
            cb = min(b, (p + 1) * fp)
            covered = cb - ca
            if covered <= 0:
                if state == PageState.VALID:
                    # surviving page: the simple controllers this FTL models
                    # read the data out and rewrite it (both legs cross the
                    # shared gang bus — no copy-back engine)
                    join.expect()
                    el.read_page(old_row, local, nbytes=fp, tag=tag,
                                 callback=join.child_done)
                    el.invalidate_state(old_row, local)
                    join.expect()
                    new_row = self._program(
                        gang, new_row, p, slot, tag, join.child_done
                    )
                    self.stats.rmw_pages_read += 1
                continue
            if state == PageState.VALID:
                if covered < fp:
                    # merge read before reprogramming the partial page
                    join.expect()
                    el.read_page(
                        old_row, local, nbytes=fp, tag=tag,
                        callback=join.child_done,
                    )
                    self.stats.rmw_pages_read += 1
                el.invalidate_state(old_row, local)
            join.expect()
            new_row = self._program(
                gang, new_row, p, slot, tag, join.child_done
            )
        self._maps[gang][slot] = new_row
        self._erase_row(gang, old_row, TAG_CLEAN, self._space_freed)

    # -- rows ------------------------------------------------------------

    def _program(self, gang: int, row: int, p: int, slot: int, tag: str,
                 callback: Optional[Callable[[float], None]]) -> int:
        """Program stripe page *p* of *row* (see :meth:`_retry_program` for
        a failure) and count it; returns the row the stripe now lives in,
        which callers must keep using."""
        e_idx = gang * self.shards + p % self.shards
        local = p // self.shards
        if self.elements[e_idx].program_page(row, local, slot, tag=tag,
                                             callback=callback):
            self.stats.flash_pages_programmed += 1
            return row
        return self._retry_program(e_idx, row, local, slot, tag, callback)[0]

    def _rescue_row(self, gang: int, row: int) -> int:
        """Rescued pages keep their positions in a fresh row; with no row
        free nothing is retired (the bad row stays, burned page and all)."""
        if not self._pool[gang]:
            return -1
        return self._pull_row(gang)

    def _spare_page(self, e_idx: int, dest: int, page: int,
                    temp: str = "hot") -> Optional[Tuple[int, int]]:
        return None if dest < 0 else (dest, page)

    def _row_relocated(self, gang: int, old_row: int, new_row: int) -> None:
        """Every live page of *old_row* now sits at the same position in
        *new_row*: rewrite the logical map."""
        m = self._maps[gang]
        m[m == old_row] = new_row

    # -- admission / introspection ---------------------------------------

    def _needed(self, offset: int, size: int) -> Dict[int, int]:
        """Gang -> stripes of the range it holds: the rows a write of the
        range may pull there."""
        sb = self.stripe_bytes
        needed: Dict[int, int] = {}
        for lbn in range(offset // sb, (offset + size - 1) // sb + 1):
            gang = lbn % self.n_gangs
            needed[gang] = needed.get(gang, 0) + 1
        return needed

    def _headroom(self, gang: int) -> int:
        return len(self._pool[gang]) - self.reserve_rows

    def elements_for_range(self, offset: int, size: int) -> List[int]:
        shards = self.shards
        return [e_idx for gang in sorted(self._needed(offset, size))
                for e_idx in range(gang * shards, (gang + 1) * shards)]

    def mapped_row(self, lbn: int) -> int:
        """Physical stripe row of *lbn* (-1 if unmapped); test hook."""
        gang, slot = self._gang_slot(lbn)
        return int(self._maps[gang][slot])

    def _check_shard(self, gang: int) -> None:
        """Every row is mapped, pooled, being erased, or fully free; counts
        agree."""
        mapped = set(int(r) for r in self._maps[gang] if r >= 0)
        pool = set(self._pool[gang])
        erasing = self._erasing[gang]
        assert not mapped & pool, f"gang {gang}: mapped rows in pool"
        assert not mapped & erasing, f"gang {gang}: mapped rows being erased"
        assert not pool & erasing, f"gang {gang}: pooled rows being erased"
        for e_idx in range(gang * self.shards, (gang + 1) * self.shards):
            self._check_element(e_idx)
            live = set(np.nonzero(self.elements[e_idx].valid_count > 0)[0]
                       .tolist())
            assert live <= mapped, (
                f"element {e_idx}: valid pages outside mapped rows: "
                f"{sorted(live - mapped)[:5]}"
            )
