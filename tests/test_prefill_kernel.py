"""The chunked aging kernel of :mod:`repro.ftl.prefill` against a scalar oracle.

``prefill_pagemap`` ages a device with numpy: it draws every rewrite up
front, ages each element on its own, applies the rewrites between two
instant cleans as one update and moves a clean's valid pages in one step.
The per-page loop it replaced is kept below, verbatim, as the oracle: the
kernel must leave every piece of state it left — element arrays and
counters, maps, free counts, frontiers, free-pool internals, ``FTLStats``
and the generator state — across logical page sizes, wear policies,
cleaning policies and worn-out victims that an instant clean retires.

Also pinned here: the bulk replay of ``rng.randrange`` draws, and the
argument and freshness checks that guard prefill.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.device.ssd import SSD
from repro.device.ssd_config import SSDConfig
from repro.device.interface import OpType
from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.base import DeviceFullError
from repro.ftl.cleaning import COST_BENEFIT, GREEDY, CleaningConfig
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import PrefillStateError, prefill_pagemap
from repro.sim.rng import randrange_ints
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator
from tests.conftest import run_io, small_geometry

KB4 = 4096


# ---------------------------------------------------------------------------
# the scalar oracle: the per-page loop the kernel replaced
# ---------------------------------------------------------------------------

def scalar_prefill_pagemap(ftl, fill_fraction=0.9, overwrite_fraction=0.0,
                           rng=None):
    """The per-page overwrite pass, with its block-batched fill."""
    geom = ftl.geometry
    ppb = geom.pages_per_block
    count = int(fill_fraction * ftl.user_logical_pages)
    for e_idx, el in enumerate(ftl.elements):
        gang = e_idx // ftl.shards
        n = len(range(gang, count, ftl.n_gangs))
        if n == 0:
            continue
        emap = ftl._maps[e_idx]
        pool = ftl._pool[e_idx]
        n_blocks = -(-n // ppb)
        if n_blocks > len(pool):
            raise ValueError("fill does not fit")
        blocks = np.asarray(pool[:n_blocks], dtype=np.int64)
        del pool[:n_blocks]
        tail = n % ppb
        full = blocks if tail == 0 else blocks[:-1]
        n_full_pages = len(full) * ppb
        if len(full):
            el.page_state[full, :] = PageState.VALID
            el.reverse_lpn[full, :] = np.arange(n_full_pages).reshape(-1, ppb)
            el.valid_count[full] = ppb
            el.write_ptr[full] = ppb
            emap[:n_full_pages] = (full[:, None] * ppb + np.arange(ppb)).ravel()
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
        floor = max(
            ftl.reserve_pages,
            ftl.cleaner.low_watermark_pages + geom.pages_per_block,
        )
        for _ in range(rewrites):
            lpn = rng.randrange(count)
            gang = lpn % ftl.n_gangs
            slot = lpn // ftl.n_gangs
            for j in range(ftl.shards):
                e_idx = gang * ftl.shards + j
                el = ftl.elements[e_idx]
                while ftl.free_pages(e_idx) <= floor:
                    if not scalar_instant_clean(ftl, e_idx):
                        raise ValueError("nothing reclaimable")
                old = int(ftl._maps[e_idx][slot])
                el.invalidate_state(geom.block_of(old), geom.page_of(old))
                block, page, _ = ftl.allocate_run(e_idx, 1)
                el.program_state(block, page, slot)
                ftl._maps[e_idx][slot] = geom.page_index(block, page)
    return count


def scalar_instant_clean(ftl, e_idx):
    """One zero-time greedy clean, a page at a time."""
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
    ftl._release_row(e_idx, victim)
    return True


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _ftl(lp_bytes=KB4, dynamic=True, erase_cycles=10_000, policy=GREEDY,
         blocks=24, pages=8):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages,
                         blocks_per_element=blocks)
    timing = FlashTiming.slc().scaled(erase_cycles=erase_cycles)
    elements = [FlashElement(sim, geom, timing, element_id=i)
                for i in range(8)]
    return PageMappedFTL(sim, elements, logical_page_bytes=lp_bytes,
                         spare_fraction=0.25,
                         cleaning=CleaningConfig(policy=policy),
                         wear=WearConfig(dynamic=dynamic))


def _state(ftl) -> dict:
    """Every piece of state prefill may touch, in comparable form."""
    return {
        "elements": [
            (el.page_state.tobytes(), el.reverse_lpn.tobytes(),
             el.valid_count.tobytes(), el.write_ptr.tobytes(),
             el.erase_count.tobytes(), el.block_mtime.tobytes(),
             el.retired.tobytes(), el.erases_performed,
             el.pages_programmed, el.pages_read)
            for el in ftl.elements
        ],
        "maps": [emap.tobytes() for emap in ftl._maps],
        "free": list(ftl._free),
        "frontier": [dict(f) for f in ftl._frontier],
        "pools": [list(pool) for pool in ftl._pool],
        "erasing": [set(e) for e in ftl._erasing],
        "being_cleaned": [set(b) for b in ftl.cleaner.being_cleaned],
        "stats": ftl.stats.as_dict(),
        "read_only": ftl.read_only,
    }


def _compare(fill, overwrite, seed, **ftl_args):
    """Run the kernel and the oracle on twin FTLs; both fail or both leave
    the same state.  Returns the kernel's FTL (None when both failed)."""
    kernel, oracle = _ftl(**ftl_args), _ftl(**ftl_args)
    rng_k, rng_o = random.Random(seed), random.Random(seed)
    outcomes = []  # the count mapped, or the type of the error raised
    for fn, ftl, rng in ((prefill_pagemap, kernel, rng_k),
                         (scalar_prefill_pagemap, oracle, rng_o)):
        try:
            outcomes.append(fn(ftl, fill, overwrite_fraction=overwrite,
                               rng=rng))
        except (ValueError, DeviceFullError) as exc:
            outcomes.append(type(exc))
    count_k, count_o = outcomes
    if isinstance(count_k, type) or isinstance(count_o, type):
        # an element that runs dry fails both, at the same point of its
        # own rewrites; the other elements may have aged further in one
        assert isinstance(count_k, type) and isinstance(count_o, type)
        return None
    assert count_k == count_o
    assert rng_k.getstate() == rng_o.getstate()
    assert _state(kernel) == _state(oracle)
    kernel.check_consistency()
    return kernel


# ---------------------------------------------------------------------------
# kernel vs oracle
# ---------------------------------------------------------------------------

class TestKernelMatchesScalarOracle:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        fill=st.floats(0.05, 0.95),
        overwrite=st.floats(0.0, 2.0),
        lp_bytes=st.sampled_from([KB4, 2 * KB4, 8 * KB4]),
        dynamic=st.booleans(),
        erase_cycles=st.sampled_from([2, 3, 10_000]),
        policy=st.sampled_from([GREEDY, COST_BENEFIT]),
    )
    def test_same_state(self, seed, fill, overwrite, lp_bytes, dynamic,
                        erase_cycles, policy):
        _compare(fill, overwrite, seed, lp_bytes=lp_bytes, dynamic=dynamic,
                 erase_cycles=erase_cycles, policy=policy)

    @pytest.mark.parametrize("lp_bytes", [KB4, 2 * KB4, 8 * KB4])
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_cleaning_heavy(self, lp_bytes, dynamic):
        kernel = _compare(0.9, 2.0, 11, lp_bytes=lp_bytes, dynamic=dynamic)
        assert sum(el.erases_performed for el in kernel.elements) > 0

    def test_instant_clean_retires_worn_victims(self):
        kernel = _compare(0.7, 1.5, 7, erase_cycles=2, blocks=48)
        assert kernel.stats.blocks_retired > 0

    def test_large_chunks_with_repeated_slots(self):
        # few slots per element and many free pages between cleans: most
        # chunks rewrite some slot more than once
        kernel = _compare(0.1, 2.0, 5, blocks=64)
        assert kernel is not None


# ---------------------------------------------------------------------------
# the bulk randrange replay
# ---------------------------------------------------------------------------

class _Subclassed(random.Random):
    """Not a plain Random: its draws must come from its own randrange."""


class TestDraws:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64), n=st.integers(0, 3000),
           count=st.one_of(st.integers(1, 70_000),
                           st.sampled_from([1, 2, 3, 2**16, 2**16 + 1,
                                            2**31, 2**32 - 1, 2**32,
                                            2**40 + 3])))
    def test_same_draws_and_final_state(self, seed, n, count):
        bulk, scalar = random.Random(seed), random.Random(seed)
        values = randrange_ints(bulk, count, n)
        assert values.dtype == np.int64
        assert values.tolist() == [scalar.randrange(count) for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()

    def test_subclass_draws_through_randrange(self):
        bulk, scalar = _Subclassed(9), _Subclassed(9)
        assert randrange_ints(bulk, 1000, 50).tolist() == [
            scalar.randrange(1000) for _ in range(50)]
        assert bulk.getstate() == scalar.getstate()


# ---------------------------------------------------------------------------
# argument and freshness checks
# ---------------------------------------------------------------------------

class TestPrefillRejects:
    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf,
                                          -0.5])
    def test_non_finite_or_negative_overwrite(self, fraction):
        ftl = _ftl()
        before = _state(ftl)
        with pytest.raises(ValueError, match="overwrite_fraction"):
            prefill_pagemap(ftl, 0.5, overwrite_fraction=fraction)
        assert _state(ftl) == before

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_non_finite_fill(self, fraction):
        ftl = _ftl()
        before = _state(ftl)
        with pytest.raises(ValueError, match="fill_fraction"):
            prefill_pagemap(ftl, fraction)
        assert _state(ftl) == before

    def test_second_prefill(self):
        ftl = _ftl()
        prefill_pagemap(ftl, 0.7, overwrite_fraction=0.5,
                        rng=random.Random(1))
        before = _state(ftl)
        rng = random.Random(2)
        rng_before = rng.getstate()
        with pytest.raises(PrefillStateError, match="fresh"):
            prefill_pagemap(ftl, 0.7, overwrite_fraction=0.5, rng=rng)
        assert _state(ftl) == before
        assert rng.getstate() == rng_before
        ftl.check_consistency()

    @pytest.mark.parametrize("op", [OpType.WRITE, OpType.READ])
    def test_ftl_that_took_traffic(self, sim, op):
        ssd = SSD(sim, SSDConfig(n_elements=4, geometry=small_geometry()))
        run_io(sim, ssd, op, 0, KB4)
        before = _state(ssd.ftl)
        with pytest.raises(PrefillStateError):
            prefill_pagemap(ssd.ftl, 0.5)
        assert _state(ssd.ftl) == before

    def test_is_a_value_error(self):
        assert issubclass(PrefillStateError, ValueError)

    def test_empty_fill_leaves_it_fresh(self):
        ftl = _ftl()
        assert prefill_pagemap(ftl, 0.0, overwrite_fraction=1.0) == 0
        assert prefill_pagemap(ftl, 0.5) > 0
        ftl.check_consistency()
