"""FAST-style hybrid log-block FTL — the classic mid-range baseline.

Most of the address space is block-mapped (stripe rows, as in
:class:`repro.ftl.blockmap.BlockMappedFTL`), but partial overwrites are
absorbed by a small set of page-mapped **log stripes** instead of triggering
an immediate read-modify-erase-write.  When the log fills, the oldest log
stripe is *merged*: every logical stripe with pages in it is rebuilt into a
fresh row from the newest copies (log entries + surviving data pages), the
stale rows are erased, and the log stripe is reclaimed.

This gives random writes a grace period at the cost of expensive, bursty
merges — the behaviour that separates mid-range devices from both the
low-end (S2/S3) and the high-end page-mapped parts in Table 2.

Limitations (documented, acceptable for a baseline): a merge transiently
allocates one fresh row per logical stripe present in the victim log stripe,
so the spare pool must be provisioned for the workload's locality;
pathological footprints raise :class:`repro.ftl.base.DeviceFullError`.

Row pools, background erase, retire-and-rescue and program retry are the
block lifecycle shared by every FTL family (:class:`repro.ftl.base.BaseFTL`);
reads, FREEs, the stripe walk and admission are the stripe host path of
:class:`repro.ftl.base.StripeFTLBase`.  This module says how a stripe
absorbs a write (a full-stripe switch or log appends) and that a page's
newest copy is its log entry when it has one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_CLEAN
from repro.ftl.base import CompletionJoin, StripeFTLBase
from repro.sim.engine import Simulator

__all__ = ["HybridLogBlockFTL"]


class HybridLogBlockFTL(StripeFTLBase):
    """Block-mapped base plus page-mapped log stripes (see module docstring)."""

    _full_hint = (
        " (log merge pressure; increase spare_fraction or reduce workload "
        "footprint)"
    )

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        gang_size: Optional[int] = None,
        spare_fraction: float = 0.10,
        max_log_rows: int = 4,
    ) -> None:
        shards = self.resolve_shards(elements, gang_size)
        if max_log_rows < 1:
            raise ValueError("need at least one log row")
        geom = elements[0].geometry
        usable = int(geom.blocks_per_element * (1.0 - spare_fraction)) - max_log_rows
        if usable <= 0:
            raise ValueError("device too small for spare fraction + log rows")
        self.max_log_rows = max_log_rows
        super().__init__(sim, elements, shards, usable)

        # log state per gang
        self._log_rows: List[List[int]] = [[] for _ in range(self.n_gangs)]
        self._log_fill: List[int] = [self.pages_per_stripe] * self.n_gangs
        #: (slot, stripe_page) -> (log_row, log_pos); the page-level map
        self._log_index: List[Dict[Tuple[int, int], Tuple[int, int]]] = [
            {} for _ in range(self.n_gangs)
        ]
        #: entries ever written per log row (may include stale ones)
        self._log_contents: List[Dict[int, List[Tuple[int, int, int]]]] = [
            {} for _ in range(self.n_gangs)
        ]
        self.reserve_rows = 8
        self.merges_performed = 0

    # ------------------------------------------------------------------
    # log machinery
    # ------------------------------------------------------------------

    def _log_append_pos(self, gang: int) -> Tuple[int, int]:
        """Next (log_row, position), opening/merging log rows as needed."""
        if self._log_fill[gang] >= self.pages_per_stripe:
            if len(self._log_rows[gang]) >= self.max_log_rows:
                self._merge_oldest(gang)
            row = self._pull_row(gang)
            self._log_rows[gang].append(row)
            self._log_contents[gang][row] = []
            self._log_fill[gang] = 0
        row = self._log_rows[gang][-1]
        pos = self._log_fill[gang]
        self._log_fill[gang] += 1
        return row, pos

    def _newest(self, gang: int, slot: int,
                p: int) -> Optional[Tuple[FlashElement, int, int]]:
        """A page's newest copy is its log entry when it has one."""
        entry = self._log_index[gang].get((slot, p))
        if entry is None:
            return super()._newest(gang, slot, p)
        lrow, lpos = entry
        el, local = self._element(gang, lpos)
        return el, lrow, local

    def _drop(self, gang: int, slot: int, p: int) -> bool:
        dropped = super()._drop(gang, slot, p)
        self._log_index[gang].pop((slot, p), None)
        return dropped

    def _merge_oldest(self, gang: int) -> None:
        """Full merge of the oldest log stripe (cost model of FAST).

        All merge commands are tagged ``clean`` and run through the element
        FIFOs, so host requests queued behind a merge observe its latency.
        """
        victim = self._log_rows[gang].pop(0)
        entries = self._log_contents[gang].pop(victim)
        index = self._log_index[gang]
        live_slots: List[int] = []
        seen: Set[int] = set()
        for slot, p, pos in entries:
            if index.get((slot, p)) == (victim, pos) and slot not in seen:
                seen.add(slot)
                live_slots.append(slot)

        for slot in live_slots:
            self._merge_slot(gang, slot)
        # every live entry of the victim has been folded into data rows
        self._erase_row(gang, victim, TAG_CLEAN, self._space_freed)
        self.merges_performed += 1

    def _merge_slot(self, gang: int, slot: int) -> None:
        """Rebuild one logical stripe from its newest page copies."""
        geom = self.geometry
        timing = self.elements[gang * self.shards].timing
        old_row = int(self._maps[gang][slot])
        new_row = self._pull_row(gang)
        index = self._log_index[gang]

        for p in range(self.pages_per_stripe):
            home_el, home_local = self._element(gang, p)
            entry = index.get((slot, p))
            if entry is not None:
                lrow, lpos = entry
                src_el, src_local = self._element(gang, lpos)
                del index[(slot, p)]
                if src_el is home_el:
                    new_row = self._merge_copy(
                        gang, src_el, lrow, src_local, new_row, home_local, slot
                    )
                    self.stats.clean_time_us += timing.copy_us(geom.page_bytes)
                else:
                    src_el.read_page(lrow, src_local, tag=TAG_CLEAN)
                    src_el.invalidate_state(lrow, src_local)
                    new_row = self._program(
                        gang, new_row, p, slot, TAG_CLEAN, None
                    )
                    if home_el.page_state[new_row, home_local] == PageState.VALID:
                        self.stats.clean_pages_moved += 1
                    self.stats.clean_time_us += timing.read_us(
                        geom.page_bytes
                    ) + timing.program_us(geom.page_bytes)
            elif old_row >= 0 and home_el.page_state[old_row, home_local] == PageState.VALID:
                new_row = self._merge_copy(
                    gang, home_el, old_row, home_local, new_row, home_local, slot
                )
                self.stats.clean_time_us += timing.copy_us(geom.page_bytes)

        self._maps[gang][slot] = new_row
        if old_row >= 0:
            self._erase_row(gang, old_row, TAG_CLEAN, self._space_freed)

    def _merge_copy(
        self,
        gang: int,
        src_el: FlashElement,
        src_row: int,
        src_local: int,
        new_row: int,
        dst_local: int,
        slot: int,
    ) -> int:
        """Copy one surviving page into the merge row, rescuing the row on
        a program failure.  Returns the (possibly relocated) merge row.
        When the spare rows run out the page is lost: the source copy is
        dropped so the stale row it lives in stays erasable."""
        while not src_el.copy_page(
            src_row, src_local, new_row, dst_local, slot, tag=TAG_CLEAN
        ):
            self.stats.program_failures += 1
            rescued = self._retire_row(gang, new_row)
            if rescued < 0:
                self.stats.failed_pages += 1
                self._note_write_error()
                src_el.invalidate_state(src_row, src_local)
                return new_row
            new_row = rescued
        self.stats.clean_pages_moved += 1
        self.stats.flash_pages_programmed += 1
        return new_row

    def _row_relocated(self, gang: int, old_row: int, new_row: int) -> None:
        """A row moved wholesale (grown bad block): fix every log structure
        that references it, then the block map (base)."""
        rows = self._log_rows[gang]
        for i, r in enumerate(rows):
            if r == old_row:
                rows[i] = new_row
        contents = self._log_contents[gang]
        if old_row in contents:
            contents[new_row] = contents.pop(old_row)
        index = self._log_index[gang]
        for key, (lrow, lpos) in index.items():
            if lrow == old_row:
                index[key] = (new_row, lpos)
        super()._row_relocated(gang, old_row, new_row)

    # ------------------------------------------------------------------
    # host writes
    # ------------------------------------------------------------------

    def _write_stripe(self, gang: int, slot: int, a: int, b: int,
                      join: CompletionJoin, tag: str) -> None:
        """A whole stripe switches to a fresh row; anything less goes to
        the log page by page."""
        if a == 0 and b == self.stripe_bytes:
            self._switch_write(gang, slot, join, tag)
            return
        fp = self.geometry.page_bytes
        for p in range(a // fp, (b - 1) // fp + 1):
            partial = min(b, (p + 1) * fp) - max(a, p * fp) < fp
            self._log_write_page(gang, slot, p, partial, join, tag)

    def _switch_write(self, gang: int, slot: int, join: CompletionJoin, tag: str) -> None:
        """Full-stripe overwrite: program a fresh row, drop all old copies."""
        old_row = int(self._maps[gang][slot])
        new_row = self._pull_row(gang)
        for p in range(self.pages_per_stripe):
            self._drop(gang, slot, p)
            join.expect()
            new_row = self._program(
                gang, new_row, p, slot, tag, join.child_done
            )
        self._maps[gang][slot] = new_row
        if old_row >= 0:
            self._erase_row(gang, old_row, TAG_CLEAN, self._space_freed)

    def _log_write_page(
        self,
        gang: int,
        slot: int,
        p: int,
        partial: bool,
        join: CompletionJoin,
        tag: str,
    ) -> None:
        """Append one page to the log, merging with its old copy if the host
        write covers only part of the page."""
        if partial:
            # merge read from wherever the newest copy lives
            copy = self._newest(gang, slot, p)
            if copy is not None:
                el, row, local = copy
                join.expect()
                el.read_page(row, local, tag=tag, callback=join.child_done)
                self.stats.rmw_pages_read += 1
        self._drop(gang, slot, p)
        lrow, lpos = self._log_append_pos(gang)
        join.expect()
        # the element is keyed by the log *position*, so the program
        # helper gets lpos (not p); a relocation moves the whole log row
        # and _row_relocated fixes the log structures that reference it
        lrow = self._program(gang, lrow, lpos, slot, tag, join.child_done)
        el, local = self._element(gang, lpos)
        if el.page_state[lrow, local] == PageState.VALID:
            self._log_index[gang][(slot, p)] = (lrow, lpos)
            self._log_contents[gang][lrow].append((slot, p, lpos))
        # else: the retry ran out of spare rows and the page burned in
        # place — the data is lost (counted by the retry loop) and the
        # old copy was already invalidated above, so the page reads a hole

    # ------------------------------------------------------------------

    def _check_shard(self, gang: int) -> None:
        """Log index entries point at VALID pages; valid counts agree."""
        for (slot, p), (lrow, lpos) in self._log_index[gang].items():
            el, local = self._element(gang, lpos)
            assert el.page_state[lrow, local] == PageState.VALID, (
                f"gang {gang}: log entry ({slot},{p}) -> ({lrow},{lpos}) "
                "not VALID"
            )
            assert lrow in self._log_rows[gang], (
                f"gang {gang}: log entry points at non-log row {lrow}"
            )
        for e_idx in range(gang * self.shards, (gang + 1) * self.shards):
            self._check_element(e_idx)
