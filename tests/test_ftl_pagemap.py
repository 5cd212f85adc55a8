"""Unit and invariant tests for the page-mapped FTL."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.base import DeviceFullError
from repro.ftl.cleaning import CleaningConfig
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.ftl.wearlevel import WearConfig
from repro.sim.engine import Simulator

KB4 = 4096


def make_ftl(
    n_elements=4,
    blocks=32,
    pages=8,
    logical_page_bytes=None,
    spare=0.2,
    cleaning=None,
    wear=None,
):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages, blocks_per_element=blocks)
    elements = [
        FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
        for i in range(n_elements)
    ]
    ftl = PageMappedFTL(
        sim,
        elements,
        logical_page_bytes=logical_page_bytes,
        spare_fraction=spare,
        cleaning=cleaning,
        wear=wear,
    )
    return sim, ftl


class TestConstruction:
    def test_capacity_accounts_for_spare(self):
        _sim, ftl = make_ftl(n_elements=4, blocks=32, pages=8, spare=0.2)
        raw_pages = 4 * 32 * 8
        assert ftl.user_logical_pages == int(raw_pages * 0.8)
        assert ftl.logical_capacity_bytes == ftl.user_logical_pages * KB4

    def test_striped_logical_page_shards(self):
        _sim, ftl = make_ftl(n_elements=4, logical_page_bytes=4 * KB4)
        assert ftl.shards == 4
        assert ftl.n_gangs == 1

    def test_rejects_bad_logical_page(self):
        with pytest.raises(ValueError):
            make_ftl(logical_page_bytes=KB4 + 1)

    def test_rejects_indivisible_elements(self):
        with pytest.raises(ValueError):
            make_ftl(n_elements=3, logical_page_bytes=2 * KB4)

    def test_rejects_bad_spare(self):
        with pytest.raises(ValueError):
            make_ftl(spare=0.0)


class TestWriteRead:
    def test_write_maps_and_read_hits(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert ftl.mapped_ppn(0) >= 0
        before = ftl.stats.host_reads
        ftl.read(0, KB4)
        sim.run_until_idle()
        assert ftl.stats.host_reads == before + 1
        ftl.check_consistency()

    def test_read_of_unwritten_space_completes_without_flash(self):
        sim, ftl = make_ftl()
        fired = []
        ftl.read(0, KB4, done=fired.append)
        sim.run_until_idle()
        assert fired  # completes even with zero flash ops
        assert ftl.elements[0].pages_read == 0

    def test_sequential_writes_stripe_across_elements(self):
        sim, ftl = make_ftl(n_elements=4)
        for lpn in range(4):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        programmed = [el.pages_programmed for el in ftl.elements]
        assert programmed == [1, 1, 1, 1]

    def test_overwrite_invalidates_old_page(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)
        sim.run_until_idle()
        first = ftl.mapped_ppn(0)
        ftl.write(0, KB4)
        sim.run_until_idle()
        second = ftl.mapped_ppn(0)
        assert first != second
        el = ftl.elements[0]
        geom = ftl.geometry
        assert el.page_state[geom.block_of(first), geom.page_of(first)] == PageState.INVALID
        ftl.check_consistency()

    def test_aligned_full_page_write_has_no_rmw(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert ftl.stats.rmw_pages_read == 0

    def test_sub_page_overwrite_triggers_rmw(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)
        sim.run_until_idle()
        ftl.write(0, 512)
        sim.run_until_idle()
        assert ftl.stats.rmw_pages_read == 1
        ftl.check_consistency()

    def test_partial_write_to_striped_page_amplifies(self):
        # 16 KB logical page over 4 elements: a 4 KB write programs 4 shards
        sim, ftl = make_ftl(n_elements=4, logical_page_bytes=4 * KB4)
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert ftl.stats.flash_pages_programmed == 4
        # overwrite amplifies again and merge-reads the mapped shards
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert ftl.stats.flash_pages_programmed == 8
        assert ftl.stats.rmw_pages_read == 3  # shards 1..3 survive via read
        ftl.check_consistency()

    def test_full_stripe_write_no_amplification(self):
        sim, ftl = make_ftl(n_elements=4, logical_page_bytes=4 * KB4)
        ftl.write(0, 4 * KB4)
        ftl.write(0, 4 * KB4)
        sim.run_until_idle()
        assert ftl.stats.rmw_pages_read == 0
        assert ftl.stats.flash_pages_programmed == 8

    def test_range_validation(self):
        _sim, ftl = make_ftl()
        with pytest.raises(ValueError):
            ftl.write(-KB4, KB4)
        with pytest.raises(ValueError):
            ftl.write(ftl.logical_capacity_bytes, KB4)
        with pytest.raises(ValueError):
            ftl.read(0, 0)


SECTOR = 512


@st.composite
def _ranges(draw, capacity, lp):
    """A sector-aligned range up to three logical pages long, anywhere."""
    sectors = draw(st.integers(1, 3 * lp // SECTOR))
    start = draw(st.integers(0, capacity // SECTOR - sectors))
    return start * SECTOR, sectors * SECTOR


class TestRangeWalk:
    """``write``, ``read``, ``_needed`` and ``elements_for_range`` all walk
    a host range through ``_pages``; each must agree with the others on
    ranges that straddle logical pages and cover shards only partly."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shards=st.sampled_from([1, 2, 4, 8]))
    def test_consumers_agree(self, data, shards):
        sim, ftl = make_ftl(n_elements=8, logical_page_bytes=shards * KB4)
        cap, lp = ftl.logical_capacity_bytes, ftl.logical_page_bytes
        earlier = data.draw(st.none() | _ranges(cap, lp), label="earlier")
        if earlier is not None:
            # old data under the range: the write merges surviving bytes
            ftl.write(*earlier)
            sim.run_until_idle()
        offset, size = data.draw(_ranges(cap, lp), label="range")

        # flash pages the range covers at least one byte of
        covered = (offset + size - 1) // KB4 - offset // KB4 + 1
        stats = ftl.stats.snapshot()

        needed = ftl._needed(offset, size)
        before = [el.pages_programmed for el in ftl.elements]
        ftl.write(offset, size)
        programs = {e: el.pages_programmed - before[e]
                    for e, el in enumerate(ftl.elements)
                    if el.pages_programmed != before[e]}
        assert programs == needed
        assert ftl.stats.host_pages_written - stats.host_pages_written == covered
        sim.run_until_idle()

        before = [el.pages_read for el in ftl.elements]
        ftl.read(offset, size)
        read_on = [e for e, el in enumerate(ftl.elements)
                   if el.pages_read != before[e]]
        assert ftl.elements_for_range(offset, size) == read_on
        assert ftl.stats.host_pages_read - stats.host_pages_read == covered
        sim.run_until_idle()
        ftl.check_consistency()


class TestTrim:
    def test_trim_unmaps_whole_pages(self):
        sim, ftl = make_ftl()
        ftl.write(0, 4 * KB4)
        sim.run_until_idle()
        ftl.trim(0, 4 * KB4)
        for lpn in range(4):
            assert ftl.mapped_ppn(lpn) == -1
        assert ftl.stats.trimmed_pages == 4
        ftl.check_consistency()

    def test_trim_keeps_partial_edges(self):
        sim, ftl = make_ftl()
        ftl.write(0, 4 * KB4)
        sim.run_until_idle()
        # covers page 1 fully, pages 0 and 2 partially
        ftl.trim(2048, 2 * KB4)
        assert ftl.mapped_ppn(0) >= 0
        assert ftl.mapped_ppn(1) == -1
        assert ftl.mapped_ppn(2) >= 0
        ftl.check_consistency()

    def test_trim_of_unmapped_space_is_noop(self):
        sim, ftl = make_ftl()
        ftl.trim(0, 8 * KB4)
        assert ftl.stats.trimmed_pages == 0
        ftl.check_consistency()

    def test_read_after_trim_issues_no_flash_op(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)
        sim.run_until_idle()
        ftl.trim(0, KB4)
        reads_before = ftl.elements[0].pages_read
        ftl.read(0, KB4)
        sim.run_until_idle()
        assert ftl.elements[0].pages_read == reads_before


class TestCleaning:
    def test_cleaning_reclaims_space_under_churn(self):
        sim, ftl = make_ftl(n_elements=1, blocks=16, pages=8, spare=0.25)
        rng = random.Random(1)
        capacity_pages = ftl.user_logical_pages
        for _ in range(capacity_pages * 6):
            lpn = rng.randrange(capacity_pages)
            ftl.write(lpn * KB4, KB4)
            sim.run_until_idle()
        assert ftl.stats.clean_erases > 0
        assert ftl.stats.clean_pages_moved >= 0
        ftl.check_consistency()

    def test_all_valid_blocks_yield_no_victim(self):
        sim, ftl = make_ftl(n_elements=1, blocks=8, pages=4, spare=0.3)
        for lpn in range(ftl.user_logical_pages):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        # every block fully valid: erasing any would gain nothing
        assert ftl.cleaner.select_victim(0) == -1

    def test_greedy_picks_fewest_valid(self):
        sim, ftl = make_ftl(n_elements=1, blocks=8, pages=4, spare=0.3)
        count = ftl.user_logical_pages
        for lpn in range(count):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        # invalidate the whole first block (lpns 0..3 live there) and one
        # page of the second; greedy must pick the emptier first block
        for lpn in range(5):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        victim = ftl.cleaner.select_victim(0)
        el = ftl.elements[0]
        assert victim >= 0
        candidates = [
            b for b in range(8)
            if el.write_ptr[b] > 0 and b not in ftl.frontier_blocks(0)
        ]
        assert el.valid_count[victim] == min(el.valid_count[b] for b in candidates)

    def test_cleaning_time_matches_element_accounting(self):
        sim, ftl = make_ftl(n_elements=1, blocks=16, pages=8, spare=0.25)
        rng = random.Random(7)
        capacity_pages = ftl.user_logical_pages
        for _ in range(capacity_pages * 5):
            ftl.write(rng.randrange(capacity_pages) * KB4, KB4)
            sim.run_until_idle()
        recorded = ftl.stats.clean_time_us
        measured = ftl.elements[0].busy_us("clean")
        assert recorded == pytest.approx(measured, rel=1e-9)

    def test_device_full_raises_when_cleaning_cannot_complete(self):
        # fill the device, then burst-overwrite without letting the event
        # loop run: cleaning erases never complete, so the pool exhausts
        sim, ftl = make_ftl(n_elements=1, blocks=8, pages=4, spare=0.25)
        for lpn in range(ftl.user_logical_pages):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        with pytest.raises(DeviceFullError):
            for _ in range(4):
                for lpn in range(ftl.user_logical_pages):
                    ftl.write(lpn * KB4, KB4)

    def test_can_accept_write_reflects_reserve(self):
        _sim, ftl = make_ftl(n_elements=1, blocks=8, pages=4, spare=0.3)
        assert ftl.can_accept_write(0, KB4)
        # exhaust free pages synthetically
        ftl._free[0] = ftl.reserve_pages
        assert not ftl.can_accept_write(0, KB4)

    def test_promised_pages_count_against_admission(self):
        _sim, ftl = make_ftl(n_elements=2, blocks=8, pages=4, spare=0.3)
        ftl._free[0] = ftl.reserve_pages + 1
        assert ftl.can_accept_write(0, KB4)
        ftl.promise(0, KB4, 1)      # admitted, data still on the link
        assert not ftl.can_accept_write(0, KB4)
        assert ftl.can_accept_write(KB4, KB4)  # element 1 is untouched
        assert not ftl.can_accept_write(0, 2 * KB4)
        ftl.promise(0, KB4, -1)     # arrived: the write pulls for itself
        assert ftl.can_accept_write(0, 2 * KB4)
        ftl.promise(0, 4 * KB4, 1)  # multi-page: one page per element
        assert ftl._promised == [2, 2]
        ftl.promise(0, 4 * KB4, -1)
        assert ftl._promised == [0, 0]

    def test_refused_only_by_promised_pages_is_not_wedged(self):
        """Nothing is written, so cleaning has no victim: a wedge test
        that counted the promise would call this write wedged."""
        _sim, ftl = make_ftl(n_elements=1, blocks=8, pages=4, spare=0.3)
        ftl._free[0] = ftl.reserve_pages + 1
        ftl.promise(0, KB4, 1)      # admitted, data still on the link
        assert not ftl.can_accept_write(0, KB4)
        assert not ftl.write_wedged(0, KB4)  # the promise will resolve
        assert ftl.ensure_space(0, KB4)
        assert not ftl.read_only
        ftl.promise(0, KB4, -1)     # arrived: the write pulls for itself
        assert ftl.can_accept_write(0, KB4)

    def test_deep_queue_never_overcommits_pages(self):
        """Regression: every write admitted while an earlier one was still
        on the host link counted the same headroom, so at depth 32 the
        pulls raised ``DeviceFullError`` out of ``sim.run`` after 1016
        completions (depth 8 completed)."""
        from repro.device.interface import OpType
        from repro.device.ssd import SSD
        from repro.device.ssd_config import SSDConfig
        from repro.workloads.driver import ClosedLoopDriver

        sim = Simulator()
        device = SSD(sim, SSDConfig(
            n_elements=4,
            geometry=FlashGeometry(page_bytes=KB4, pages_per_block=4,
                                   blocks_per_element=64),
            ftl_type="pagemap", spare_fraction=0.25,
        ))
        rng = random.Random(7)
        slots = device.capacity_bytes // KB4
        result = ClosedLoopDriver(
            sim, device,
            lambda i: (OpType.WRITE, rng.randrange(slots) * KB4, KB4),
            count=4000, depth=32,
        ).run()
        assert result.count == 4000
        assert result.errors == {}
        assert device.ftl._promised == [0] * 4
        device.ftl.check_consistency()


class TestPriorityGate:
    @staticmethod
    def _below_low_watermark(priority_aware):
        """An aged FTL whose element 0 host writes pushed just below the
        low watermark while a priority request was outstanding."""
        cleaning = CleaningConfig(low_watermark=0.25, critical_watermark=0.05,
                                  priority_aware=priority_aware)
        # elements big enough that the fractions dominate the safety floors
        _sim, ftl = make_ftl(blocks=64, pages=16, cleaning=cleaning)
        pages = ftl.geometry.pages_per_element
        cleaner = ftl.cleaner
        assert cleaner.low_watermark_pages == int(0.25 * pages)
        assert cleaner._critical_pages == int(0.05 * pages)
        # prefill holds every element just above the low watermark
        prefill_pagemap(ftl, 0.9, overwrite_fraction=0.2,
                        rng=random.Random(1))
        ftl.priority_probe = lambda: 2
        offset = 0
        while ftl.free_pages(0) >= cleaner.low_watermark_pages:
            assert not cleaner._active[0]
            ftl.write(offset, KB4)  # logical pages 0, n, 2n, ... are element 0's
            offset += ftl.n_gangs * KB4
        assert cleaner._critical_pages < ftl.free_pages(0)
        return ftl

    def test_threshold_drops_to_critical_with_priority_pending(self):
        ftl = self._below_low_watermark(priority_aware=True)
        cleaner = ftl.cleaner
        # between the watermarks, the write path's maybe_clean held off
        assert not cleaner._active[0]
        cleaner.maybe_clean(0)
        assert not cleaner._active[0]
        ftl.priority_probe = lambda: 0
        cleaner.maybe_clean(0)
        assert cleaner._active[0] and cleaner.being_cleaned[0]

    def test_agnostic_ignores_priority(self):
        ftl = self._below_low_watermark(priority_aware=False)
        # the write that crossed the low watermark started a clean despite
        # the outstanding priority request
        assert ftl.cleaner._active[0] and ftl.cleaner.being_cleaned[0]

    def test_watermark_floors_on_tiny_elements(self):
        # fractions of a small element fall below the safety floors; the
        # floors must keep cleaning ahead of admission control
        _sim, ftl = make_ftl(blocks=32, pages=8)
        cleaner = ftl.cleaner
        assert cleaner.low_watermark_pages >= ftl.reserve_pages
        assert cleaner._critical_pages > ftl.reserve_pages // 2
        assert cleaner._critical_pages <= cleaner.low_watermark_pages


class TestPrefill:
    def test_prefill_consistent(self):
        _sim, ftl = make_ftl(n_elements=4, blocks=32, pages=8, spare=0.2)
        mapped = prefill_pagemap(ftl, fill_fraction=0.5)
        assert mapped == int(0.5 * ftl.user_logical_pages)
        for lpn in range(mapped):
            assert ftl.mapped_ppn(lpn) >= 0
        assert ftl.mapped_ppn(mapped) == -1
        ftl.check_consistency()

    def test_prefill_with_overwrites_scatters_invalids(self):
        _sim, ftl = make_ftl(n_elements=2, blocks=32, pages=8, spare=0.2)
        prefill_pagemap(ftl, fill_fraction=0.6, overwrite_fraction=0.3,
                        rng=random.Random(3))
        invalid = sum(
            int((el.page_state == PageState.INVALID).sum()) for el in ftl.elements
        )
        assert invalid > 0
        ftl.check_consistency()

    def test_prefill_striped(self):
        _sim, ftl = make_ftl(n_elements=4, logical_page_bytes=2 * KB4, spare=0.2)
        prefill_pagemap(ftl, fill_fraction=0.4)
        ftl.check_consistency()

    def test_prefill_overfill_rejected(self):
        _sim, ftl = make_ftl()
        with pytest.raises(ValueError):
            prefill_pagemap(ftl, fill_fraction=1.5)

    def test_writes_after_prefill_work(self):
        sim, ftl = make_ftl(n_elements=2, blocks=32, pages=8, spare=0.25)
        prefill_pagemap(ftl, fill_fraction=0.7, overwrite_fraction=0.1)
        rng = random.Random(5)
        for _ in range(200):
            lpn = rng.randrange(ftl.user_logical_pages)
            ftl.write(lpn * KB4, KB4)
            sim.run_until_idle()
        ftl.check_consistency()


class TestWearLeveling:
    def test_dynamic_pull_prefers_least_worn(self):
        _sim, ftl = make_ftl(n_elements=1, wear=WearConfig(dynamic=True))
        el = ftl.elements[0]
        el.erase_count[:] = 10
        el.erase_count[5] = 1
        block = ftl._pull_block(0, "hot")
        assert block == 5

    def test_cold_pull_prefers_most_worn(self):
        _sim, ftl = make_ftl(n_elements=1)
        el = ftl.elements[0]
        el.erase_count[:] = 1
        el.erase_count[7] = 99
        block = ftl._pull_block(0, "cold")
        assert block == 7

    def test_static_migration_reduces_spread(self):
        wear = WearConfig(
            dynamic=True, static=True, spread_threshold=4, check_every_erases=1
        )
        cleaning = CleaningConfig(low_watermark=0.3, critical_watermark=0.05)
        sim, ftl = make_ftl(
            n_elements=1, blocks=16, pages=8, spare=0.3, wear=wear, cleaning=cleaning
        )
        rng = random.Random(11)
        # hammer a small hot set so some blocks wear while cold data pins others
        count = ftl.user_logical_pages
        for lpn in range(count):
            ftl.write(lpn * KB4, KB4)
        sim.run_until_idle()
        for _ in range(count * 12):
            lpn = rng.randrange(max(2, count // 4))
            ftl.write(lpn * KB4, KB4)
            sim.run_until_idle()
        assert ftl.stats.wear_migrations > 0
        ftl.check_consistency()


class TestPageWearOut:
    """Blocks that reach ``erase_cycles`` leave circulation for good, and
    once the spares are worn out the device goes read-only instead of
    stalling or raising (the page-mapped sibling of the block-mapped FTL's
    ``TestStripeWearOut``)."""

    def test_worn_blocks_retire_and_device_goes_read_only(self):
        from collections import Counter

        from repro.device.interface import IORequest, OpType
        from repro.device.ssd import SSD
        from repro.device.ssd_config import SSDConfig

        sim = Simulator()
        ssd = SSD(sim, SSDConfig(
            n_elements=4,
            geometry=FlashGeometry(page_bytes=KB4, pages_per_block=4,
                                   blocks_per_element=16),
            timing=FlashTiming.slc().scaled(erase_cycles=3),
            ftl_type="pagemap", spare_fraction=0.25,
        ))
        ftl = ssd.ftl

        pooled_worn = []
        row_pooled = ftl._row_pooled

        def watch(e_idx):
            block = ftl._pool[e_idx][-1]
            if ftl.elements[e_idx].erase_count[block] >= 3:
                pooled_worn.append((e_idx, block))
            row_pooled(e_idx)

        ftl._row_pooled = watch

        completed = Counter()
        rng = random.Random(7)
        slots = ssd.capacity_bytes // KB4
        for _ in range(600):
            ssd.submit(IORequest(
                OpType.WRITE, rng.randrange(slots) * KB4, KB4,
                on_complete=lambda request: completed.update([id(request)])))
        sim.run_until_idle()  # no DeviceFullError escapes

        assert len(completed) == 600
        assert set(completed.values()) == {1}
        assert ftl.read_only
        assert ftl.stats.blocks_retired > 0
        assert pooled_worn == []
        for e_idx, el in enumerate(ftl.elements):
            worn = set((el.erase_count >= 3).nonzero()[0].tolist())
            assert not set(ftl._pool[e_idx]) & worn
        ftl.check_consistency()
