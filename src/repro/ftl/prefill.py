"""Zero-time steady-state warmup for cleaning experiments.

The paper's cleaning experiments (Tables 5/6, Figure 3) run on devices that
are already *full* — cleaning only matters once the free pool is scarce and
invalid pages are scattered.  Simulating hours of fill traffic event by
event would dominate run time, so these helpers bulk-initialize FTL state
directly (mappings, page states, counters), bypassing the event loop, and
leave the device exactly as if the fill had been simulated:
``check_consistency`` passes afterwards, which the test suite asserts.

``overwrite_fraction`` performs a second pass of random logical-page
rewrites so invalid pages scatter across blocks — the steady state a real
aged device is in.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import numpy as np

from repro.flash.element import PageState
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.hybrid import HybridLogBlockFTL
from repro.ftl.pagemap import PageMappedFTL

__all__ = ["prefill_pagemap", "prefill_stripe_ftl"]


def prefill_pagemap(
    ftl: PageMappedFTL,
    fill_fraction: float = 0.9,
    overwrite_fraction: float = 0.0,
    rng: Optional[random.Random] = None,
) -> int:
    """Fill the first ``fill_fraction`` of the logical space, then rewrite a
    further ``overwrite_fraction`` of it at random.  Returns the number of
    logical pages mapped."""
    if not 0.0 <= fill_fraction <= 1.0:
        raise ValueError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
    if overwrite_fraction < 0.0:
        raise ValueError("overwrite_fraction must be non-negative")

    geom = ftl.geometry
    ppb = geom.pages_per_block
    count = int(fill_fraction * ftl.user_logical_pages)

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
        blocks = np.asarray(pool.pop_fifo_many(n_blocks), dtype=np.int64)
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

    if overwrite_fraction > 0.0 and count > 0:
        rng = rng if rng is not None else random.Random(0)
        rewrites = int(overwrite_fraction * count)
        # steady-state floor: just above the cleaner's low watermark (where
        # a live device hovers); loop-invariant, hoisted out of the rewrites
        floor = max(
            ftl.reserve_pages,
            ftl.cleaner.low_watermark_pages + geom.pages_per_block,
        )
        randrange = rng.randrange
        maps = ftl._maps
        elements = ftl.elements
        shards = ftl.shards
        free_pages = ftl.free_pages
        allocate_run = ftl.allocate_run
        block_of, page_of, page_index = (
            geom.block_of, geom.page_of, geom.page_index
        )
        for _ in range(rewrites):
            lpn = randrange(count)
            gang = lpn % ftl.n_gangs
            slot = lpn // ftl.n_gangs
            for j in range(shards):
                e_idx = gang * shards + j
                el = elements[e_idx]
                while free_pages(e_idx) <= floor:
                    if not _instant_clean(ftl, e_idx):
                        raise ValueError(
                            f"element {e_idx}: nothing reclaimable during "
                            "prefill (reduce fill_fraction)"
                        )
                old = int(maps[e_idx][slot])
                el.invalidate_state(block_of(old), page_of(old))
                block, page, _ = allocate_run(e_idx, 1)
                el.program_state(block, page, slot)
                maps[e_idx][slot] = page_index(block, page)
    return count


def _instant_clean(ftl: PageMappedFTL, e_idx: int) -> bool:
    """One zero-time greedy clean: state transitions only, no events.

    Used exclusively during warmup; the timed cleaner in
    :mod:`repro.ftl.cleaning` does the same work on the clock.
    """
    victim = ftl.cleaner.select_victim(e_idx)
    if victim < 0:
        return False
    el = ftl.elements[e_idx]
    geom = ftl.geometry
    pages = np.nonzero(el.page_state[victim] == PageState.VALID)[0]
    for page in pages:
        slot = int(el.reverse_lpn[victim, int(page)])
        el.invalidate_state(victim, int(page))
        block, new_page, _ = ftl.allocate_run(e_idx, 1)
        el.program_state(block, new_page, slot)
        ftl.map_for(e_idx)[slot] = geom.page_index(block, new_page)
    el.erase_state(victim)
    ftl.release_block(e_idx, victim)
    return True


def prefill_stripe_ftl(
    ftl: Union[BlockMappedFTL, HybridLogBlockFTL],
    fill_fraction: float = 0.9,
) -> int:
    """Map the first ``fill_fraction`` of a stripe-mapped FTL's logical
    stripes to fully-valid rows (so overwrites trigger RMW/log appends, as on
    an aged device).  Returns the number of stripes mapped."""
    if not 0.0 <= fill_fraction <= 1.0:
        raise ValueError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
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
        rows = np.asarray(ftl._pool[gang].pop_fifo_many(len(slots)),
                          dtype=np.int64)
        gmap[slots] = rows
        for j in range(ftl.shards):
            el = ftl.elements[gang * ftl.shards + j]
            el.page_state[rows, :] = PageState.VALID
            el.reverse_lpn[rows, :] = slots[:, None]
            el.valid_count[rows] = ppb
            el.write_ptr[rows] = ppb
    return count
