"""Zero-time steady-state warmup for cleaning experiments.

The paper's cleaning experiments (Tables 5/6, Figure 3) run on devices that
are already *full* — cleaning only matters once the free pool is scarce and
invalid pages are scattered.  Simulating hours of fill traffic event by
event would dominate run time, so these helpers bulk-initialize FTL state
directly (mappings, page states, counters), bypassing the event loop, and
leave the device exactly as if the fill had been simulated:
``check_consistency`` passes afterwards, which the test suite asserts.
Prefill builds that state from scratch, so it takes only a fresh FTL: one
that holds no data and has taken no traffic (:class:`PrefillStateError`).

Aging
-----
``overwrite_fraction`` rewrites a further share of the filled logical pages
at uniformly random LPNs, so invalid pages scatter across blocks — the
steady state a real aged device is in.  Each rewrite invalidates the old
copy and programs the next frontier page.  An element whose free count is
at the *floor* (just above the cleaner's low watermark, where a live device
hovers) before a rewrite is first cleaned in zero time, greedy victim
first, until it is above the floor again.

The rewrites are applied with numpy, in chunks, not page by page:

* **Draws first.**  Every rewrite LPN is drawn up front: the values, and
  the generator's final state, of one ``rng.randrange(count)`` per rewrite
  in rewrite order (replayed in bulk from ``getrandbits``, see
  :func:`repro.sim.rng.randrange_ints`).
* **Elements are independent.**  An element sees only its own gang's map
  slots, in draw order; its cleans, pool pulls and frontier depend on
  nothing else.  So each element is aged on its own, from its gang's slot
  subsequence.
* **Chunk rule.**  With ``free`` pages above the floor, the element's next
  ``free - floor`` rewrites all happen before any clean, so they are one
  update: the old copy of each distinct slot is invalidated, the chunk is
  programmed into consecutive frontier pages (one
  :meth:`PageMappedFTL.allocate_run` per block crossed), and of a slot
  rewritten more than once in the chunk only its last copy stays VALID.
* **One step per clean.**  An instant clean moves all of the victim's
  valid pages to the frontier at once, then erases and releases the victim
  through the FTL's block lifecycle (a worn-out victim is retired).

The per-page legality checks of :class:`repro.flash.element.FlashElement`
are kept as array checks: a page is FREE before it is programmed and a run
starts at its block's write pointer; a page is VALID before it is
invalidated; a block holds no valid page when it is erased.  The resulting
state — element arrays and counters, maps, free counts, frontiers, pool
order, stats and the generator state — is the one a per-page loop leaves;
``tests/test_prefill_kernel.py`` checks this against such a loop.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.checks import Bound
from repro.flash.element import FlashElement, FlashStateError, PageState
from repro.ftl.base import FTLStats
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.sim.rng import randrange_ints

__all__ = ["PrefillStateError", "prefill_pagemap", "prefill_stripe_ftl"]


class PrefillStateError(ValueError):
    """The FTL handed to :func:`prefill_pagemap` is not fresh: it already
    maps data or has taken traffic, and prefill would corrupt it."""


def prefill_pagemap(
    ftl: PageMappedFTL,
    fill_fraction: float = 0.9,
    overwrite_fraction: float = 0.0,
    rng: Optional[random.Random] = None,
) -> int:
    """Fill the first ``fill_fraction`` of the logical space, then rewrite a
    further ``overwrite_fraction`` of it at random.  Returns the number of
    logical pages mapped."""
    Bound(ge=0, le=1).check("fill_fraction", fill_fraction)
    Bound(ge=0).check("overwrite_fraction", overwrite_fraction)
    _check_fresh(ftl)

    count = int(fill_fraction * ftl.user_logical_pages)
    _fill(ftl, count)
    if overwrite_fraction > 0.0 and count > 0:
        _age(ftl, count, int(overwrite_fraction * count),
             rng if rng is not None else random.Random(0))
    return count


def _check_fresh(ftl: PageMappedFTL) -> None:
    """Raise :class:`PrefillStateError` unless *ftl* maps nothing, has
    written nothing and counts no traffic."""
    if (
        ftl.stats != FTLStats()
        or any(ftl._frontier)
        or any((emap >= 0).any() for emap in ftl._maps)
        or any(el.write_ptr.any() for el in ftl.elements)
    ):
        raise PrefillStateError(
            "prefill_pagemap needs a fresh FTL; this one already holds data "
            "or has taken traffic"
        )


def _fill(ftl: PageMappedFTL, count: int) -> None:
    """Map logical pages ``0..count-1`` to fully-valid blocks carved in
    pool order."""
    ppb = ftl.geometry.pages_per_block
    for e_idx, el in enumerate(ftl.elements):
        gang = e_idx // ftl.shards
        # logical pages gang, gang+n_gangs, ... < count land here, at
        # consecutive map slots 0..n-1
        n = len(range(gang, count, ftl.n_gangs))
        if n == 0:
            continue
        emap = ftl._maps[e_idx]
        pool = ftl._pool[e_idx]
        n_blocks = -(-n // ppb)
        if n_blocks > len(pool):
            raise ValueError(
                f"element {e_idx}: fill needs {n_blocks} blocks, pool has "
                f"{len(pool)} (reduce fill_fraction)"
            )
        # batch carve + bulk state writes: one numpy assignment per array
        # instead of one per block (state identical to the seed's per-block
        # loop — blocks leave the pool in the same FIFO order and map to
        # the same consecutive slot runs)
        blocks = _carve(pool, n_blocks)
        tail = n % ppb
        full = blocks if tail == 0 else blocks[:-1]
        n_full_pages = len(full) * ppb
        if len(full):
            el.page_state[full, :] = PageState.VALID
            el.reverse_lpn[full, :] = np.arange(n_full_pages).reshape(-1, ppb)
            el.valid_count[full] = ppb
            el.write_ptr[full] = ppb
            emap[:n_full_pages] = (
                full[:, None] * ppb + np.arange(ppb)
            ).ravel()
        if tail:
            block = int(blocks[-1])
            el.page_state[block, :tail] = PageState.VALID
            el.reverse_lpn[block, :tail] = np.arange(n - tail, n)
            el.valid_count[block] = tail
            el.write_ptr[block] = tail
            emap[n - tail : n] = block * ppb + np.arange(tail)
            ftl._frontier[e_idx]["hot"] = block
        ftl._free[e_idx] -= n


def _carve(pool: List[int], count: int) -> np.ndarray:
    """Take the *count* oldest entries of *pool*, in pool order."""
    if count > len(pool):
        raise IndexError(f"pool holds {len(pool)} rows, {count} needed")
    rows = np.asarray(pool[:count], dtype=np.int64)
    del pool[:count]
    return rows


def _age(ftl: PageMappedFTL, count: int, rewrites: int,
         rng: random.Random) -> None:
    """Rewrite *rewrites* random logical pages of the first *count*, with
    instant cleans to hold every element at the floor (module docstring)."""
    lpns = randrange_ints(rng, count, rewrites)
    gangs = lpns % ftl.n_gangs
    slots = lpns // ftl.n_gangs
    # steady-state floor: just above the cleaner's low watermark (where a
    # live device hovers)
    floor = max(
        ftl.reserve_pages,
        ftl.cleaner.low_watermark_pages + ftl.geometry.pages_per_block,
    )
    for gang in range(ftl.n_gangs):
        gang_slots = slots[gangs == gang]
        for e_idx in range(gang * ftl.shards, (gang + 1) * ftl.shards):
            _age_element(ftl, e_idx, gang_slots, floor)


def _age_element(ftl: PageMappedFTL, e_idx: int, slots: np.ndarray,
                 floor: int) -> None:
    """Rewrite map *slots* of element *e_idx* in order: one chunk per run of
    rewrites between instant cleans."""
    free = ftl._free
    done = 0
    while done < len(slots):
        while free[e_idx] <= floor:
            if not _instant_clean(ftl, e_idx):
                raise ValueError(
                    f"element {e_idx}: nothing reclaimable during prefill "
                    "(reduce fill_fraction)"
                )
        end = min(done + free[e_idx] - floor, len(slots))
        _rewrite(ftl, e_idx, slots[done:end])
        done = end


def _rewrite(ftl: PageMappedFTL, e_idx: int, slots: np.ndarray) -> None:
    """Rewrite map *slots* of element *e_idx*, in order, with no clean in
    between: each slot's old copy goes INVALID and the chunk fills the next
    frontier pages, where only a slot's last copy stays VALID."""
    el = ftl.elements[e_idx]
    emap = ftl._maps[e_idx]
    # last[i]: no later rewrite of slots[i] in this chunk (a stable sort
    # keeps repeats of a slot in chunk order)
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    last = np.ones(len(slots), dtype=bool)
    last[order[:-1][ranked[1:] == ranked[:-1]]] = False
    live = slots[last]
    _invalidate(el, emap[live])
    pages = _program(ftl, e_idx, slots)
    if len(live) < len(slots):
        _invalidate(el, pages[~last])
    emap[live] = pages[last]


def _instant_clean(ftl: PageMappedFTL, e_idx: int) -> bool:
    """One zero-time greedy clean: state transitions only, no events.

    Used exclusively during warmup; the timed cleaner in
    :mod:`repro.ftl.cleaning` does the same work on the clock.
    """
    victim = ftl.cleaner.select_victim(e_idx)
    if victim < 0:
        return False
    el = ftl.elements[e_idx]
    states = el.page_state[victim]
    valid = states == PageState.VALID
    n_valid = np.count_nonzero(valid)
    if n_valid:
        tags = el.reverse_lpn[victim]
        slots = tags[valid]
        states[valid] = PageState.INVALID
        tags[valid] = -1
        el._vc[victim] -= n_valid
        ftl._maps[e_idx][slots] = _program(ftl, e_idx, slots)
    el.erase_state(victim)
    ftl._release_row(e_idx, victim)
    return True


def _invalidate(el: FlashElement, ppns: np.ndarray) -> None:
    """Mark the distinct VALID pages *ppns* (flat page numbers) INVALID."""
    states = el.page_state.reshape(-1)
    not_valid = states[ppns] != PageState.VALID
    if np.count_nonzero(not_valid):
        block, page = divmod(int(ppns[not_valid][0]),
                             el.geometry.pages_per_block)
        raise FlashStateError(
            f"element {el.element_id}: invalidate of non-valid page "
            f"({block}, {page}) state={el.page_state[block, page]}"
        )
    states[ppns] = PageState.INVALID
    el.reverse_lpn.reshape(-1)[ppns] = -1
    el.valid_count -= np.bincount(ppns // el.geometry.pages_per_block,
                                  minlength=len(el.valid_count))


def _program(ftl: PageMappedFTL, e_idx: int, slots: np.ndarray) -> np.ndarray:
    """Program *slots* into consecutive frontier pages of element *e_idx*
    (pulling erased blocks as the frontier fills); returns the flat page
    numbers, in order."""
    el = ftl.elements[e_idx]
    ppb = ftl.geometry.pages_per_block
    now = ftl.sim.now
    ppns = np.empty(len(slots), dtype=np.int64)
    done = 0
    while done < len(slots):
        block, first, n = ftl.allocate_run(e_idx, len(slots) - done)
        end = first + n
        states = el.page_state[block, first:end]
        if first != el._wp[block] or np.count_nonzero(states):
            raise FlashStateError(
                f"element {el.element_id}: program of pages {first}..{end - 1}"
                f" of block {block} (write_ptr={el._wp[block]}) not in order "
                "or not free"
            )
        states[:] = PageState.VALID
        el.reverse_lpn[block, first:end] = slots[done:done + n]
        el._vc[block] += n
        # allocate_run hands out pages from the write pointer without
        # moving it: advance it now, or the next run gets these pages again
        el._wp[block] = end
        el._mt[block] = now
        ppns[done:done + n] = np.arange(block * ppb + first, block * ppb + end)
        done += n
    el.pages_programmed += len(slots)
    return ppns


def prefill_stripe_ftl(
    ftl: BlockMappedFTL,
    fill_fraction: float = 0.9,
) -> int:
    """Map the first ``fill_fraction`` of a block-mapped FTL's logical
    stripes to fully-valid rows (so overwrites trigger RMW, as on an aged
    device).  Returns the number of stripes mapped."""
    Bound(ge=0, le=1).check("fill_fraction", fill_fraction)
    ppb = ftl.geometry.pages_per_block
    total = ftl.n_gangs * ftl.user_rows_per_gang
    count = int(fill_fraction * total)
    # one batch per gang instead of one pop + per-element slice per stripe:
    # lbn order interleaves gangs, but each gang's pool only sees its own
    # ascending-slot pops, so grouping by gang carves identical rows
    for gang in range(ftl.n_gangs):
        n_slots = len(range(gang, count, ftl.n_gangs))
        if n_slots == 0:
            continue
        gmap = ftl._maps[gang]
        slots = np.nonzero(gmap[:n_slots] < 0)[0]
        if len(slots) == 0:
            continue
        rows = _carve(ftl._pool[gang], len(slots))
        gmap[slots] = rows
        for j in range(ftl.shards):
            el = ftl.elements[gang * ftl.shards + j]
            el.page_state[rows, :] = PageState.VALID
            el.reverse_lpn[rows, :] = slots[:, None]
            el.valid_count[rows] = ppb
            el.write_ptr[rows] = ppb
    return count
