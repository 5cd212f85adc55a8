"""Cleaning (garbage collection) for the page-mapped FTL.

The paper's two cleaning contributions live here:

* **Informed cleaning** (§3.5, Table 5) is not a policy knob in this class —
  it falls out of TRIM processing: when the FTL is allowed to process FREE
  notifications it invalidates the freed pages, so the cleaner never copies
  them.  The *default* SSD ignores FREEs and dutifully drags dead file-system
  data from block to block forever.
* **Priority-aware cleaning** (§3.6, Figure 3, Table 6) uses two watermarks:
  cleaning normally starts when an element's free-page fraction drops below
  the *low* watermark (5% in the paper), but while priority (foreground)
  requests are outstanding it is postponed until the *critical* watermark
  (2%).  The priority probe is wired to the SSD's live count of outstanding
  priority requests.

Victim selection supports the two classic policies:

* ``greedy`` — pick the full block with the fewest valid pages.
* ``cost_benefit`` — maximize ``(1 - u) / (1 + u) * age`` (LFS-style), which
  trades reclaim efficiency against data temperature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.checks import Checked, bounded
from repro.flash.ops import TAG_CLEAN
from repro.ftl.base import DeviceFullError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.pagemap import PageMappedFTL

__all__ = ["CleaningConfig", "Cleaner", "check_watermarks"]

GREEDY = "greedy"
COST_BENEFIT = "cost_benefit"
#: greedy selection masks non-candidates with this valid count
_NOT_A_CANDIDATE = np.iinfo(np.int32).max


def check_watermarks(low: float, critical: float) -> None:
    """Refuse a critical watermark above the low one: priority-aware
    cleaning postpones from the low watermark down to the critical one."""
    if critical > low:
        raise ValueError(
            "critical_watermark must be <= low_watermark, got "
            f"critical={critical} low={low}"
        )


@dataclass(frozen=True)
class CleaningConfig(Checked):
    """Cleaning policy parameters (paper values: low 5%, critical 2%)."""

    low_watermark: float = bounded(0.05, gt=0, lt=1)
    critical_watermark: float = bounded(0.02, gt=0, lt=1)
    policy: str = GREEDY
    #: postpone cleaning while priority requests are outstanding (§3.6)
    priority_aware: bool = False
    #: copies issued per element-FIFO round; host requests interleave
    #: between rounds instead of waiting out a whole block's worth
    batch_pages: int = bounded(8, ge=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_watermarks(self.low_watermark, self.critical_watermark)
        if self.policy not in (GREEDY, COST_BENEFIT):
            raise ValueError(f"unknown cleaning policy {self.policy!r}")


class Cleaner:
    """Per-element cleaning state machine over a :class:`PageMappedFTL`.

    One block is cleaned at a time per element; between blocks the watermark
    (and the priority gate) is re-evaluated, so cleaning yields promptly to
    foreground traffic when configured to.
    """

    def __init__(self, ftl: "PageMappedFTL", config: CleaningConfig) -> None:
        self.ftl = ftl
        self.config = config
        n = len(ftl.elements)
        pages_per_element = ftl.geometry.pages_per_element
        ppb = ftl.geometry.pages_per_block
        # floors guarantee cleaning engages before admission control blocks
        # (reserve) and has headroom for a full block of copies; on
        # realistically-sized elements the configured fractions dominate
        reserve = ftl.reserve_pages
        self._low_pages = max(
            int(config.low_watermark * pages_per_element), reserve + ppb
        )
        self._critical_pages = max(
            int(config.critical_watermark * pages_per_element), reserve + 4
        )
        self._active = [False] * n
        #: a clean was abandoned because no destination page could be
        #: allocated (grown bad blocks ate the spares): the element cannot
        #: reclaim anything — the device should degrade to read-only
        self._no_space = [False] * n
        # hoisted config/FTL fields: maybe_clean probes once per host write
        self._priority_aware = config.priority_aware
        self._free = ftl._free
        #: paused mid-block continuations: e_idx -> (victim, pages, start)
        self._paused: dict[int, tuple] = {}
        #: blocks mid-clean (copied out, erase not yet complete), per element
        self.being_cleaned: list[set[int]] = [set() for _ in range(n)]

    # ------------------------------------------------------------------

    @property
    def low_watermark_pages(self) -> int:
        return self._low_pages

    def maybe_clean(self, e_idx: int, force: bool = False) -> None:
        """Start cleaning element *e_idx* if it is below the active watermark.

        ``force`` bypasses the watermark (and the priority gate): it is used
        when a write is blocked on allocation headroom — the state both
        thresholds exist to avoid — so cleaning must proceed regardless.
        """
        if self._active[e_idx]:
            self._maybe_resume(e_idx, force)
            return
        if not force:
            threshold = self._low_pages
            if self._priority_aware and self.ftl.priority_probe() > 0:
                threshold = self._critical_pages
            if self._free[e_idx] >= threshold:
                return
        victim = self.select_victim(e_idx)
        if victim < 0:
            return  # nothing reclaimable
        self._active[e_idx] = True
        self._clean_block(e_idx, victim)

    def _should_pause(self, e_idx: int) -> bool:
        """Mid-block gate (§3.6): yield to outstanding priority requests
        unless the element is critically low on space."""
        return (
            self.config.priority_aware
            and self.ftl.priority_probe() > 0
            and self.ftl.free_pages(e_idx) >= self._critical_pages
        )

    def _maybe_resume(self, e_idx: int, force: bool = False) -> None:
        if e_idx not in self._paused:
            return
        if force or not self._should_pause(e_idx):
            victim, pages, start = self._paused.pop(e_idx)
            self._copy_batch(e_idx, victim, pages, start)

    def priority_drained(self) -> None:
        """Priority queue drained.  §3.6 postpones cleaning while priority
        requests are outstanding, it does not cancel it: every element
        below the low watermark starts its clean, and paused cleans pick
        back up, in element order.  Nothing was postponed on a
        priority-agnostic cleaner."""
        if self._priority_aware:
            for e_idx in range(len(self._active)):
                self.maybe_clean(e_idx)

    def select_victim(self, e_idx: int) -> int:
        """Pick a victim block, or -1 if no block would gain free pages."""
        el = self.ftl.elements[e_idx]
        ppb = self.ftl.geometry.pages_per_block
        # any written, non-frontier, non-retired block is a candidate
        # (erasing a block with valid count v and w written pages nets
        # ppb - v free pages; retired blocks can never be re-pooled, so
        # cleaning them would only burn copies)
        candidates = (el.write_ptr > 0) & ~el.retired
        for frontier in self.ftl.frontier_blocks(e_idx):
            candidates[frontier] = False
        for block in self.being_cleaned[e_idx]:
            candidates[block] = False
        if not candidates.any():
            return -1
        valid = el.valid_count
        if self.config.policy == GREEDY:
            masked = np.where(candidates, valid, _NOT_A_CANDIDATE)
            victim = int(masked.argmin())
            if masked[victim] >= ppb:
                return -1  # every candidate is fully valid: no gain
            return victim
        # cost-benefit: maximize (1-u)/(1+u) * age over blocks with any
        # invalid pages
        gain = candidates & (valid < ppb)
        if not gain.any():
            return -1
        u = valid / float(ppb)
        age = np.maximum(self.ftl.sim.now - el.block_mtime, 1.0)
        score = np.where(gain, (1.0 - u) / (1.0 + u) * age, -1.0)
        return int(score.argmax())

    # ------------------------------------------------------------------

    def _clean_block(self, e_idx: int, victim: int) -> None:
        """Copy out the victim's valid pages in batches, then erase it.

        Commands run through the element's FIFO; batches are chained via the
        completion of their last copy, so host requests interleave between
        batches (they still observe cleaning latency — the effect Figure 3
        measures — but bounded by the batch, not the whole block).
        """
        ftl = self.ftl
        el = ftl.elements[e_idx]
        self.being_cleaned[e_idx].add(victim)
        pages = np.flatnonzero(el.page_state[victim] == 1).tolist()
        self._copy_batch(e_idx, victim, pages, 0)

    def _copy_batch(self, e_idx: int, victim: int, pages: list, start: int) -> None:
        """Issue up to ``batch_pages`` copies; chain the rest via the last
        copy's completion.  Pages the host invalidated in the meantime
        (overwrites or trims racing the clean) are skipped — their data is
        already dead.

        A batch is copied in runs of consecutive frontier pages, one
        :meth:`FlashElement.copy_run` call each.  When fault injection
        burns a destination page the run stops there: the frontier pages
        it did not reach go back to the free count, the block is retired
        (its already-copied pages are rescued), and the next run retries
        the failed page from its still-valid source."""
        ftl = self.ftl
        el = ftl.elements[e_idx]
        stats = ftl.stats
        # flat views: physical page (block, page) is block * ppb + page
        page_state = el._ps
        reverse_lpn = el._rl
        emap = ftl._mapv[e_idx]
        ppb = ftl._ppb
        victim_base = victim * ppb
        copy_us = el._page_copy_us
        batch_pages = self.config.batch_pages
        n_pages = len(pages)
        index = start
        while index < n_pages:
            end = min(index + batch_pages, n_pages)
            batch = [p for p in pages[index:end]
                     if page_state[victim_base + p] == 1]  # PageState.VALID
            index = end
            if not batch:
                continue
            more = index < n_pages
            done = 0
            todo = len(batch)
            while done < todo:
                try:
                    block, first, count = ftl.allocate_run(e_idx, todo - done)
                except DeviceFullError:
                    self._abandon(e_idx, victim)
                    return
                callback = None
                if more and done + count == todo:
                    # the batch's last copy chains the next batch
                    callback = (lambda now, start=index:
                                self._batch_done(e_idx, victim, pages, start))
                copied = el.copy_run(victim, batch[done:done + count],
                                     block, first, TAG_CLEAN, callback)
                # map the copies before a retirement can rescue them
                clean_time_us = stats.clean_time_us
                first_ppn = block * ppb + first
                for ppn in range(first_ppn, first_ppn + copied):
                    emap[reverse_lpn[ppn]] = ppn
                    clean_time_us += copy_us
                stats.clean_time_us = clean_time_us
                stats.clean_pages_moved += copied
                stats.flash_pages_programmed += copied
                done += copied
                if copied < count:
                    # fault injection burned page first + copied: return
                    # the pages the run did not reach, then retire the block
                    stats.program_failures += 1
                    self._free[e_idx] += count - copied - 1
                    ftl._retire_row(e_idx, block)
            if more:
                return
        ftl._erase_row(e_idx, victim, TAG_CLEAN,
                       lambda: self._erase_done(e_idx, victim))

    def _abandon(self, e_idx: int, victim: int) -> None:
        """No destination page can be allocated for the victim's valid
        data: abandon the clean (the victim keeps its remaining valid
        pages).  The element can no longer reclaim space, so flag it wedged
        and poke the device asynchronously — its dispatch pump re-probes
        stalled writes and degrades to read-only."""
        ftl = self.ftl
        self.being_cleaned[e_idx].discard(victim)
        self._active[e_idx] = False
        self._no_space[e_idx] = True
        ftl.sim.schedule(0.0, ftl._space_freed)

    def _batch_done(self, e_idx: int, victim: int, pages: list, start: int) -> None:
        """A copy batch finished: pause for priority traffic or continue."""
        if self._should_pause(e_idx):
            self._paused[e_idx] = (victim, pages, start)
            return
        self._copy_batch(e_idx, victim, pages, start)

    def _erase_done(self, e_idx: int, block: int) -> None:
        """The victim's erase landed (and the block was released)."""
        ftl = self.ftl
        self.being_cleaned[e_idx].discard(block)
        self._active[e_idx] = False
        ftl.wear_leveler.on_erase(e_idx)
        ftl._space_freed()
        # keep going if still below the (re-evaluated) watermark
        self.maybe_clean(e_idx)
