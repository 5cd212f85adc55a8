"""Wear-leveling for the page-mapped FTL (paper §3.5, ablation A5).

Two mechanisms, both standard:

* **Dynamic** wear-leveling is allocation-time: the frontier always pulls the
  *least*-worn erased block for hot data, and the *most*-worn erased block for
  data tagged cold (the OSD layer tags read-only objects cold, realizing the
  paper's "cold data placement during wear-leveling" suggestion in §3.7).
* **Static** wear-leveling runs every ``check_every_erases`` erases: if the
  erase-count spread across non-retired blocks exceeds ``spread_threshold``,
  the coldest full block (oldest modification time) is migrated into the
  most-worn free block, releasing the lightly-worn block back into rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.checks import Checked, bounded
from repro.flash.ops import TAG_WEAR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.pagemap import PageMappedFTL

__all__ = ["WearConfig", "WearLeveler"]


@dataclass(frozen=True)
class WearConfig(Checked):
    """Wear-leveling parameters."""

    #: dynamic (allocation-time) least-worn-first block selection
    dynamic: bool = True
    #: static migration of cold blocks
    static: bool = False
    #: erase-count spread that triggers a static migration
    spread_threshold: int = bounded(64, ge=0)
    #: how often (in erases per element) to evaluate the spread
    check_every_erases: int = bounded(64, ge=1)


class WearLeveler:
    """Static wear-leveling state machine over a :class:`PageMappedFTL`."""

    def __init__(self, ftl: "PageMappedFTL", config: WearConfig) -> None:
        self.ftl = ftl
        self.config = config
        self._erases_since_check = [0] * len(ftl.elements)
        self._migrating = [False] * len(ftl.elements)

    def on_erase(self, e_idx: int) -> None:
        """Called by the cleaner after each erase completes."""
        if not self.config.static:
            return
        self._erases_since_check[e_idx] += 1
        if self._erases_since_check[e_idx] < self.config.check_every_erases:
            return
        self._erases_since_check[e_idx] = 0
        if self._migrating[e_idx]:
            return
        self._maybe_migrate(e_idx)

    def _maybe_migrate(self, e_idx: int) -> None:
        ftl = self.ftl
        el = ftl.elements[e_idx]
        ppb = ftl.geometry.pages_per_block
        live = ~el.retired
        if not live.any():
            return
        counts = el.erase_count
        spread = int(counts[live].max() - counts[live].min())
        if spread <= self.config.spread_threshold:
            return

        # coldest migration source: a full block, not a frontier, not
        # mid-clean, with the lowest erase count (ties: oldest data)
        candidates = (el.write_ptr == ppb) & live
        for frontier in ftl.frontier_blocks(e_idx):
            candidates[frontier] = False
        for block in ftl.cleaner.being_cleaned[e_idx]:
            candidates[block] = False
        if not candidates.any():
            return
        key = counts.astype(np.float64) * 1e12 + el.block_mtime
        source = int(np.where(candidates, key, np.inf).argmin())
        if int(counts[source]) > int(counts[live].min()) + self.config.spread_threshold // 2:
            return  # the cold extreme is already mid-pack; nothing to fix

        dest = ftl.pull_worn_free_block(e_idx)
        if dest < 0:
            return
        self._migrating[e_idx] = True
        self._migrate(e_idx, source, dest)

    def _migrate(self, e_idx: int, source: int, dest: int) -> None:
        """Copy the source block's valid pages into the worn destination
        block, then erase the source and release it (re-pooled, or retired
        if the erase failed).

        The destination left the free pool wholesale in
        ``pull_worn_free_block``, so no per-page free accounting happens
        here; its unused tail (when the source had invalid holes) is
        reclaimed whenever the cleaner later picks the destination.
        """
        ftl = self.ftl
        el = ftl.elements[e_idx]
        geom = ftl.geometry
        # shield the source from the cleaner until its erase completes
        ftl.cleaner.being_cleaned[e_idx].add(source)
        pages = np.nonzero(el.page_state[source] == 1)[0]
        ppb = geom.pages_per_block
        dst_page = 0
        for page in pages:
            slot = int(el.reverse_lpn[source, page])
            while dst_page < ppb and not el.copy_page(
                source, int(page), dest, dst_page, slot, tag=TAG_WEAR
            ):
                # fault injection burned the destination page; the source
                # page is still valid — try the next destination position
                ftl.stats.program_failures += 1
                dst_page += 1
            if dst_page >= ppb:
                break
            ftl.map_for(e_idx)[slot] = geom.page_index(dest, dst_page)
            ftl.stats.wear_pages_moved += 1
            ftl.stats.flash_pages_programmed += 1
            dst_page += 1
        ftl.stats.wear_migrations += 1

        if el.valid_count[source] != 0:
            # burns ate the destination before every page made it out: the
            # source still holds valid data and cannot be erased — abandon
            # the migration (the cleaner reclaims both blocks later)
            ftl.cleaner.being_cleaned[e_idx].discard(source)
            self._migrating[e_idx] = False
            return

        def _done() -> None:
            ftl.cleaner.being_cleaned[e_idx].discard(source)
            self._migrating[e_idx] = False
            ftl._space_freed()

        ftl._erase_row(e_idx, source, TAG_WEAR, _done)
