"""Shared FTL machinery: statistics, completion joining, the common API and
the block lifecycle every FTL family runs on.

An FTL translates host byte ranges into timed flash commands on a set of
:class:`repro.flash.element.FlashElement` objects.  The contract with the
SSD layer above:

* ``read``/``write`` fan out flash commands and invoke ``done(now)`` exactly
  once when every command has completed (immediately, via a zero-delay event,
  when no flash work is needed — e.g. reading never-written space).
* ``trim`` is metadata-only and synchronous.
* Logical state (mappings, page states) is updated synchronously at command
  *issue*; elements serialize the timed work.  This keeps every queued
  command consistent with the mapping that existed when it was issued.

The block lifecycle (:class:`BaseFTL`) is written once for both FTL
families.  A **row** is block index *r* on every element of an allocation
**group**: one element for the page-mapped FTL, one gang for the
block-mapped FTL.  Rows are pulled from a per-group pool, programmed,
erased in the background and re-pooled, or retired when they go bad; a
failed program retires its row (rescuing the live pages) and tries again
elsewhere.  The families differ only in where a page goes, which they say
through a few small hooks (:meth:`BaseFTL._pull_block`,
:meth:`BaseFTL._rescue_row`, :meth:`BaseFTL._spare_page`,
:meth:`BaseFTL._page_moved`, :meth:`BaseFTL._row_relocated`,
:meth:`BaseFTL._row_pooled`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.flash.element import FlashElement, PageState
from repro.flash.ops import TAG_CLEAN, TAG_HOST
from repro.sim.engine import Simulator

__all__ = [
    "FTLStats", "BaseFTL", "DeviceFullError", "CompletionJoin",
    "complete_async",
]


def complete_async(sim: Simulator, done: Optional[Callable[[float], None]]) -> None:
    """Complete a request that needs no flash work.

    Zero-flash-op requests (reads of never-written space, a program lost
    for want of a spare) still complete through a zero-delay event so
    callers never re-enter.  The page-mapped FTL's single-page paths use
    it for holes and otherwise ride ``done`` directly on their one flash
    op, allocating no :class:`CompletionJoin`.
    """
    if done is not None:
        sim.schedule(0.0, done, sim.now)


class DeviceFullError(RuntimeError):
    """No free flash page could be allocated.

    Under correct backpressure (the SSD dispatcher admits writes only while
    ``can_accept_write`` holds) this indicates a configuration with too little
    spare area rather than a transient condition.
    """


@dataclass(slots=True)
class FTLStats:
    """Counters every FTL maintains; the cleaning fields feed Tables 5/6.

    ``slots=True``: several counters bump on every host request, so the
    instance must stay dict-free.  Use :meth:`as_dict` where the seed code
    reached for ``vars()`` (slots classes have no ``__dict__``)."""

    host_reads: int = 0
    host_writes: int = 0
    host_pages_read: int = 0
    host_pages_written: int = 0
    #: flash pages programmed for any reason (write amplification numerator)
    flash_pages_programmed: int = 0
    #: flash page reads issued on behalf of host RMW merges
    rmw_pages_read: int = 0
    #: cleaning: valid pages copied out of victim blocks
    clean_pages_moved: int = 0
    #: cleaning: total simulated time of cleaning commands (copies + erases)
    clean_time_us: float = 0.0
    clean_erases: int = 0
    #: wear-leveling migrations (blocks) and pages moved by them
    wear_migrations: int = 0
    wear_pages_moved: int = 0
    trims: int = 0
    trimmed_pages: int = 0
    #: writes refused admission at least once (backpressure events)
    write_stalls: int = 0
    #: fault handling (all zero unless fault injection is enabled):
    #: program/copy failures the FTL redirected or rescued
    program_failures: int = 0
    #: erase failures that turned blocks into grown bad blocks
    erase_failures: int = 0
    #: blocks removed from circulation (grown bad blocks + wear-out)
    blocks_retired: int = 0
    #: still-valid pages copied out of a block at retirement time
    rescued_pages: int = 0
    #: pages whose data was lost because no spare could be allocated
    failed_pages: int = 0

    def as_dict(self) -> dict:
        """Field name -> value (what ``vars()`` gave before ``slots``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "FTLStats":
        return FTLStats(**self.as_dict())

    def delta(self, earlier: "FTLStats") -> "FTLStats":
        """Field-wise difference ``self - earlier`` (for windowed measures)."""
        out = FTLStats()
        for name, value in self.as_dict().items():
            setattr(out, name, value - getattr(earlier, name))
        return out


class CompletionJoin:
    """Join a request's flash-command completions into one ``done(now)``.

    The join holds itself open until :meth:`arm`, so ``done`` fires only
    for a request that issued all its commands.  A request that raises
    part-way (a stripe write finding no spare row) is never completed by
    its join, even as the commands it did issue land; whoever catches the
    error completes it.  A one-op request costs no extra event: ``done``
    fires from the op's own completion.
    """

    __slots__ = ("_remaining", "_done", "_sim")

    def __init__(
        self,
        sim: Simulator,
        done: Optional[Callable[[float], None]],
    ):
        self._sim = sim
        self._done = done
        #: outstanding commands, plus the hold :meth:`arm` releases
        self._remaining = 1

    def expect(self, count: int = 1) -> None:
        self._remaining += count

    def arm(self) -> None:
        """Call after all ``expect`` calls; fires through a zero-delay event
        if nothing is outstanding (zero-flash-op requests still complete
        asynchronously so callers never re-enter)."""
        self._remaining -= 1
        if self._remaining == 0:
            self._sim.schedule(0.0, self._fire, self._sim.now)

    def child_done(self, now: float) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._fire(now)

    def _fire(self, now: float) -> None:
        done = self._done
        self._done = None
        if done is not None:
            done(now)


class BaseFTL:
    """Common state, the common API and the block lifecycle of every FTL.

    *group_width* elements form one allocation group; the elements are
    split into consecutive groups of that width (see the module docstring).
    """

    def __init__(
        self,
        sim: Simulator,
        elements: List[FlashElement],
        logical_capacity_bytes: int,
        group_width: int = 1,
    ) -> None:
        if not elements:
            raise ValueError("an FTL needs at least one element")
        geom = elements[0].geometry
        for el in elements:
            if el.geometry != geom:
                raise ValueError("all elements must share one geometry")
        self.sim = sim
        self.elements = elements
        self.geometry = geom
        self.logical_capacity_bytes = logical_capacity_bytes
        self.stats = FTLStats()
        self.group_width = group_width
        n_groups = len(elements) // group_width
        #: per-group erased-row pools, in pool-entry order: a row leaves
        #: from anywhere (the family's pull policy) and re-enters at the end
        self._pool: List[List[int]] = [
            list(range(geom.blocks_per_element)) for _ in range(n_groups)
        ]
        #: rows with erases in flight, per group
        self._erasing: List[Set[int]] = [set() for _ in range(n_groups)]
        #: per group, what admitted writes whose data is still crossing
        #: the host link will pull (see :meth:`promise`)
        self._promised = [0] * n_groups
        #: consulted by priority-aware cleaning; the SSD points this at its
        #: own count of outstanding priority requests
        self.priority_probe: Callable[[], int] = lambda: 0
        #: hook fired when cleaning frees space (SSD retries stalled writes)
        self.on_space_freed: Optional[Callable[[], None]] = None
        #: True once fault injection is attached (set by the SSD): a write
        #: that runs out of spares part-way is then failed, not fatal
        self.faults_enabled = False
        #: once True the device only serves reads: spares are exhausted and
        #: no reclamation can make progress (grown bad blocks ate the pool,
        #: or the spare area was too small for the workload to begin with)
        self.read_only = False
        #: set when an in-flight write lost data ("transient": a retry may
        #: succeed once reclamation or retirement completes; "readonly":
        #: the device has degraded).  The write buffer moves it onto the
        #: request so the host sees an error completion.
        self.write_error: Optional[str] = None

    def enter_read_only(self) -> None:
        """Degrade to read-only: writes are refused admission from here on
        (the SSD fails queued writes instead of stalling forever)."""
        if not self.read_only:
            self.read_only = True

    def write_wedged(self, offset: int, size: int) -> bool:
        """True when a blocked write can never be admitted again: the free
        pool is exhausted and no reclamation (cleaning, stripe retirement)
        is possible or in flight.  Probed on the write-stall paths only:
        by the SSD for a refused queued write and by the write-back cache
        for a refused drain."""
        return False

    # -- interface the SSD drives ----------------------------------------

    def read(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]],
        tag: str = TAG_HOST,
    ) -> None:
        raise NotImplementedError

    def write(
        self,
        offset: int,
        size: int,
        done: Optional[Callable[[float], None]],
        tag: str = TAG_HOST,
        temp: str = "hot",
    ) -> None:
        raise NotImplementedError

    def trim(self, offset: int, size: int) -> None:
        raise NotImplementedError

    def can_accept_write(self, offset: int, size: int) -> bool:
        """True when the write can be admitted without risking allocation
        failure (the SSD dispatcher holds writes back otherwise)."""
        raise NotImplementedError

    def promise(self, offset: int, size: int, count: int) -> None:
        """Hold (``count=1``) or hand back (``count=-1``) what a write of
        the range will pull (:meth:`_needed`).  Admission reads the pool at
        dispatch, but a write pulls only when its data arrives, so every
        write admitted in between would otherwise count the same headroom.
        The device promises at dispatch and hands the promise back just
        before the write pulls; ``can_accept_write`` subtracts it."""
        promised = self._promised
        for group, n in self._needed(offset, size).items():
            promised[group] += count * n

    def _needed(self, offset: int, size: int) -> Dict[int, int]:
        """Group -> what a write of the range may pull there: rows for
        the block-mapped FTL, pages for the page-mapped FTL."""
        raise NotImplementedError

    def ensure_space(self, offset: int, size: int) -> None:
        """A write for this range is blocked on allocation headroom: start
        whatever reclamation the FTL has, regardless of watermarks.  The
        default is a no-op (FTLs whose reclamation is already in flight —
        inline erase-after-RMW — need nothing extra)."""

    def priority_idle(self) -> None:
        """The device's priority queue just drained; FTLs with paused
        background work may resume it.  Default: nothing to resume."""

    def elements_for_range(self, offset: int, size: int) -> List[int]:
        """Indices of elements a request would touch (for SWTF estimates)."""
        raise NotImplementedError

    # -- addressing --------------------------------------------------------

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size <= 0 or offset + size > self.logical_capacity_bytes:
            raise ValueError(
                f"range [{offset}, {offset + size}) outside logical capacity "
                f"{self.logical_capacity_bytes}"
            )

    def _gang_slot(self, lpn: int) -> Tuple[int, int]:
        """(gang, map slot) of logical unit *lpn*: units rotate across
        gangs."""
        return lpn % self.n_gangs, lpn // self.n_gangs

    # -- block lifecycle ---------------------------------------------------

    def _pull_row(self, group: int, temp: str = "hot") -> int:
        """Take an erased row out of *group*'s pool (which one is the
        family's :meth:`_pull_block` policy)."""
        if not self._pool[group]:
            raise DeviceFullError(f"group {group}: no erased rows left")
        return self._pull_block(group, temp)

    def _pull_block(self, group: int, temp: str) -> int:
        """Pop policy of the pool (non-empty): LIFO, the newest entry."""
        return self._pool[group].pop()

    def _erase_row(self, group: int, row: int, tag: str,
                   then: Callable[[], None]) -> None:
        """Erase *row* on every element of *group* in the background.

        Cleaning erases (``TAG_CLEAN``) count ``clean_erases`` and add their
        time to ``clean_time_us`` at issue, in element order.  When the last
        erase lands the row is released (:meth:`_release_row`) and *then*
        runs, also for a row that went bad: stalled writes must re-probe
        so the SSD can detect a wedged device."""
        width = self.group_width
        base = group * width
        stats = self.stats
        clean = tag == TAG_CLEAN
        erasing = self._erasing[group]
        erasing.add(row)
        outstanding = [width]

        def landed(now: float) -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                erasing.discard(row)
                self._release_row(group, row)
                then()

        for el in self.elements[base:base + width]:
            if clean:
                stats.clean_erases += 1
                stats.clean_time_us += el.timing.erase_us()
            if not el.erase_block(row, tag=tag, callback=landed):
                stats.erase_failures += 1

    def _release_row(self, group: int, row: int) -> None:
        """An erased *row* goes back to its pool, or leaves circulation on
        every element of the group when any of its blocks went bad (a
        failed erase or wear-out): rows are allocated whole, and a retired
        row shrinks the spare area, which is how grown bad blocks
        eventually exhaust the spares."""
        width = self.group_width
        elements = self.elements[group * width:(group + 1) * width]
        if any(el.retired[row] for el in elements):
            for el in elements:
                el.retired[row] = True
            self.stats.blocks_retired += width
        else:
            self._pool[group].append(row)
            self._row_pooled(group)

    def _row_pooled(self, group: int) -> None:
        """A row just went back into *group*'s pool."""

    def _retire_row(self, group: int, row: int) -> int:
        """Grow a bad row: copy its VALID pages out, then retire it on every
        element of *group*.

        The rescue copies run with fault injection suspended: they model
        the verified writes a controller uses to save data off a failing
        block.  :meth:`_rescue_row` picks the destination row (-1: none, so
        nothing is retired), :meth:`_spare_page` each page's place (None:
        the element is full, and the pages left stay readable in place).
        Returns the destination row."""
        dest = self._rescue_row(group, row)
        if dest < 0:
            return dest
        width = self.group_width
        base = group * width
        elements = self.elements[base:base + width]
        stats = self.stats
        saved = [el.fault_model for el in elements]
        try:
            for e_idx, el in enumerate(elements, base):
                el.fault_model = None
                valid = np.nonzero(el.page_state[row] == PageState.VALID)[0]
                for page in valid.tolist():
                    lpn = int(el.reverse_lpn[row, page])
                    spare = self._spare_page(e_idx, dest, page)
                    if spare is None:
                        break
                    el.copy_page(row, page, spare[0], spare[1], lpn,
                                 tag=TAG_CLEAN)
                    self._page_moved(e_idx, lpn, spare[0], spare[1])
                    stats.rescued_pages += 1
                    stats.flash_pages_programmed += 1
        finally:
            for el, fault_model in zip(elements, saved):
                el.fault_model = fault_model
        for el in elements:
            el.retired[row] = True
        stats.blocks_retired += width
        self._row_relocated(group, row, dest)
        return dest

    def _retry_program(self, e_idx: int, row: int, page: int, lpn: int,
                       tag: str, callback: Optional[Callable[[float], None]],
                       temp: str = "hot") -> Tuple[int, int]:
        """The program of (*row*, *page*) on element *e_idx* just failed:
        retire the row and program again at a spare place until the page
        lands.  With no spare left the page is lost: the loss is counted,
        ``write_error`` is raised for the host, and *callback* still fires.

        Returns ``(row, page)`` where the page landed, or ``(row, -1)``
        when it was lost; *row* is where the caller's data now lives."""
        el = self.elements[e_idx]
        group = e_idx // self.group_width
        stats = self.stats
        while True:
            stats.program_failures += 1
            dest = self._retire_row(group, row)
            spare = self._spare_page(e_idx, dest, page, temp)
            if spare is None:
                stats.failed_pages += 1
                self._note_write_error()
                complete_async(self.sim, callback)
                return row, -1
            row, page = spare
            if el.program_page(row, page, lpn, tag=tag, callback=callback):
                stats.flash_pages_programmed += 1
                return row, page

    def _rescue_row(self, group: int, row: int) -> int:  # pragma: no cover
        """Prepare to retire *row*; returns the row rescued pages go to,
        or -1 to retire nothing."""
        raise NotImplementedError

    def _spare_page(self, e_idx: int, dest: int, page: int,  # pragma: no cover
                    temp: str = "hot") -> Optional[Tuple[int, int]]:
        """Place for page *page* of a row being left for *dest* on element
        *e_idx*, as ``(row, page)``; None when there is none."""
        raise NotImplementedError

    def _page_moved(self, e_idx: int, lpn: int, row: int, page: int) -> None:
        """A rescue copied the page tagged *lpn* to (*row*, *page*)."""

    def _row_relocated(self, group: int, old_row: int, new_row: int) -> None:
        """*old_row* was retired and its live pages rescued to *new_row*."""

    # -- shared accounting -------------------------------------------------

    def _note_write_error(self) -> None:
        """An in-flight write lost data; the SSD surfaces the error on the
        request's completion (first error wins until consumed)."""
        if self.write_error is None:
            self.write_error = "readonly" if self.read_only else "transient"

    def _space_freed(self) -> None:
        if self.on_space_freed is not None:
            self.on_space_freed()

    @property
    def media_bytes_written(self) -> int:
        return self.stats.flash_pages_programmed * self.geometry.page_bytes

    def check_consistency(self) -> None:
        """Verify internal invariants over the whole device, one
        allocation group (element or gang) at a time; used heavily by the
        test suite."""
        for group in range(len(self._pool)):
            self._check_shard(group)

    def _check_shard(self, group: int) -> None:  # pragma: no cover
        """Verify the invariants of one allocation group."""
        raise NotImplementedError

    def _check_element(self, e_idx: int) -> None:
        """The lifecycle invariants of one element: per-block valid counts
        agree with the page states, and every pooled row is pooled once,
        erased and in service."""
        el = self.elements[e_idx]
        recount = (el.page_state == PageState.VALID).sum(axis=1)
        assert (recount == el.valid_count).all(), (
            f"element {e_idx}: valid_count out of sync"
        )
        pooled = self._pool[e_idx // self.group_width]
        assert len(set(pooled)) == len(pooled), (
            f"element {e_idx}: a row is pooled twice"
        )
        written = [row for row in pooled if el.write_ptr[row]]
        assert not written, (
            f"element {e_idx}: pooled rows {written[:5]} not erased"
        )
        retired = [row for row in pooled if el.retired[row]]
        assert not retired, (
            f"element {e_idx}: pooled rows {retired[:5]} are retired"
        )
