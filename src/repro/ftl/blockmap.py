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

Stripe rows run the block lifecycle shared by every FTL family (a per-gang
list of erased rows pulled LIFO, background erase, retire-and-rescue,
program retry; see :class:`repro.ftl.base.BaseFTL`).
Reads, FREEs, the stripe walk and admission are the stripe host path of
:class:`repro.ftl.base.StripeFTLBase`; this module only says how one
stripe absorbs a write (:meth:`BlockMappedFTL._write_stripe`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_CLEAN
from repro.ftl.base import CompletionJoin, StripeFTLBase
from repro.sim.engine import Simulator

__all__ = ["BlockMappedFTL"]


class BlockMappedFTL(StripeFTLBase):
    """Stripe-granularity mapping with read-modify-erase-write (see module
    docstring)."""

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        gang_size: Optional[int] = None,
        spare_fraction: float = 0.06,
    ) -> None:
        shards = self.resolve_shards(elements, gang_size)
        if not 0.0 < spare_fraction < 1.0:
            raise ValueError(f"spare_fraction must be in (0, 1), got {spare_fraction}")
        geom = elements[0].geometry
        user_rows = int(geom.blocks_per_element * (1.0 - spare_fraction))
        if user_rows <= 0:
            raise ValueError("device too small for the requested spare fraction")
        super().__init__(sim, elements, shards, user_rows)
        # reserve_rows stays at the StripeFTLBase default (frontier + one RMW)

    def _write_stripe(self, gang: int, slot: int, a: int, b: int,
                      join: CompletionJoin, tag: str) -> None:
        """Program the pages in place when the stripe is fresh or they are
        all still free (sequential streams run at near-full speed); any
        other write runs the read-modify-erase-write cycle."""
        fp = self.geometry.page_bytes
        p0, p1 = a // fp, (b - 1) // fp
        row = int(self._maps[gang][slot])
        if row < 0:
            row = self._pull_row(gang)
            self._maps[gang][slot] = row
        elif not self._all_free(gang, row, p0, p1):
            self._rmw(gang, slot, row, a, b, join, tag)
            return
        for p in range(p0, p1 + 1):
            join.expect()
            row = self._program(gang, row, p, slot, tag, join.child_done)

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

    # ------------------------------------------------------------------

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
