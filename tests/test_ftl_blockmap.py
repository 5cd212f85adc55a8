"""Unit and invariant tests for the block-mapped FTL (RMW behaviour)."""

from __future__ import annotations

import pytest

from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.prefill import prefill_stripe_ftl
from repro.sim.engine import Simulator

KB4 = 4096


def make_ftl(n_elements=4, gang_size=None, blocks=16, pages=8, spare=0.25):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages,
                         blocks_per_element=blocks)
    elements = [
        FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
        for i in range(n_elements)
    ]
    ftl = BlockMappedFTL(sim, elements, gang_size=gang_size, spare_fraction=spare)
    return sim, ftl


class TestConstruction:
    def test_stripe_size(self):
        _sim, ftl = make_ftl(n_elements=4, pages=8)
        assert ftl.stripe_bytes == 4 * 8 * KB4
        assert ftl.pages_per_stripe == 32

    def test_gangs(self):
        _sim, ftl = make_ftl(n_elements=4, gang_size=2)
        assert ftl.n_gangs == 2

    def test_relaxes_program_order(self):
        _sim, ftl = make_ftl()
        assert all(not el.strict_program_order for el in ftl.elements)

    def test_rejects_bad_gang(self):
        with pytest.raises(ValueError):
            make_ftl(n_elements=4, gang_size=3)


class TestWritePaths:
    def test_fresh_write_programs_covered_pages_only(self):
        sim, ftl = make_ftl()
        ftl.write(0, 2 * KB4)
        sim.run_until_idle()
        assert ftl.stats.flash_pages_programmed == 2
        assert ftl.stats.rmw_pages_read == 0
        ftl.check_consistency()

    def test_sequential_append_no_rmw(self):
        sim, ftl = make_ftl()
        for page in range(8):
            ftl.write(page * KB4, KB4)
        sim.run_until_idle()
        assert ftl.stats.rmw_pages_read == 0
        assert ftl.stats.flash_pages_programmed == 8
        ftl.check_consistency()

    def test_overwrite_triggers_full_stripe_rmw(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 1.0)
        before = ftl.stats.flash_pages_programmed
        ftl.write(0, KB4)  # 4 KB into a fully-valid 256 KB stripe
        sim.run_until_idle()
        programmed = ftl.stats.flash_pages_programmed - before
        # every page of the stripe lands in the new row
        assert programmed == ftl.pages_per_stripe
        assert ftl.stats.rmw_pages_read == ftl.pages_per_stripe - 1
        ftl.check_consistency()

    def test_rmw_remaps_stripe(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 1.0)
        old_row = ftl.mapped_row(0)
        ftl.write(0, KB4)
        sim.run_until_idle()
        assert ftl.mapped_row(0) != old_row
        ftl.check_consistency()

    def test_old_row_returns_to_pool_after_erase(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        pool_before = len(ftl._pool[0])
        ftl.write(0, KB4)
        sim.run_until_idle()
        # consumed one row, erased and returned the old one
        assert len(ftl._pool[0]) == pool_before
        ftl.check_consistency()

    def test_partial_page_overwrite_merge_reads(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 1.0)
        ftl.write(512, 1024)  # sub-page write
        sim.run_until_idle()
        # the partially-covered page is read for merge, the rest survive
        assert ftl.stats.rmw_pages_read == ftl.pages_per_stripe
        ftl.check_consistency()


class TestReads:
    def test_read_written_data(self):
        sim, ftl = make_ftl()
        ftl.write(0, 4 * KB4)
        sim.run_until_idle()
        before = sum(el.pages_read for el in ftl.elements)
        ftl.read(0, 4 * KB4)
        sim.run_until_idle()
        assert sum(el.pages_read for el in ftl.elements) - before == 4

    def test_read_of_hole_skips_flash(self):
        sim, ftl = make_ftl()
        ftl.write(0, KB4)  # page 0 only
        sim.run_until_idle()
        before = sum(el.pages_read for el in ftl.elements)
        ftl.read(4 * KB4, KB4)  # untouched page of the same stripe
        sim.run_until_idle()
        assert sum(el.pages_read for el in ftl.elements) == before

    def test_read_completes_once(self):
        sim, ftl = make_ftl()
        ftl.write(0, 8 * KB4)
        sim.run_until_idle()
        fired = []
        ftl.read(0, 8 * KB4, done=fired.append)
        sim.run_until_idle()
        assert len(fired) == 1


class TestTrim:
    def test_full_stripe_trim_unmaps_and_recycles(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        pool_before = len(ftl._pool[0])
        ftl.trim(0, ftl.stripe_bytes)
        sim.run_until_idle()
        assert ftl.mapped_row(0) == -1
        assert len(ftl._pool[0]) == pool_before + 1
        ftl.check_consistency()

    def test_partial_trim_invalidates_covered_pages(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        row = ftl.mapped_row(0)
        ftl.trim(0, 2 * KB4)
        sim.run_until_idle()
        assert ftl.mapped_row(0) == row  # still mapped
        el, local = ftl._element(0, 0)
        assert el.page_state[row, local] == PageState.INVALID
        ftl.check_consistency()

    def test_trimmed_pages_counted(self):
        sim, ftl = make_ftl()
        prefill_stripe_ftl(ftl, 0.5)
        ftl.trim(0, ftl.stripe_bytes)
        sim.run_until_idle()
        assert ftl.stats.trimmed_pages == ftl.pages_per_stripe


class TestBackpressure:
    def test_can_accept_reflects_pool(self):
        _sim, ftl = make_ftl()
        assert ftl.can_accept_write(0, KB4)
        while len(ftl._pool[0]) > ftl.reserve_rows:
            ftl._pool[0].pop()
        assert not ftl.can_accept_write(0, KB4)

    def test_promised_rows_count_against_admission(self):
        _sim, ftl = make_ftl()
        while len(ftl._pool[0]) > ftl.reserve_rows + 1:
            ftl._pool[0].pop()
        assert ftl.can_accept_write(0, KB4)
        ftl.promise(0, KB4, 1)      # admitted, data still on the link
        assert not ftl.can_accept_write(0, KB4)
        assert not ftl.write_wedged(0, KB4)  # the promise will resolve
        ftl.promise(0, KB4, -1)     # arrived: the write pulls for itself
        assert ftl.can_accept_write(0, KB4)

    @pytest.mark.parametrize("preset, overrides", [
        ("s2slc", {}),
        ("s3slc", {"write_buffer": "passthrough"}),
    ])
    def test_deep_queue_never_overcommits_rows(self, preset, overrides):
        """Regression: admission read the pool at dispatch while a write
        pulls its rows only when its data arrives, so a depth-8 closed
        loop admitted several writes on the same headroom and the pull
        raised ``DeviceFullError`` out of ``sim.run`` (S2slc at 1.65 s,
        S3slc at 4.54 s of simulated time)."""
        import random

        from repro.device import presets
        from repro.device.interface import OpType
        from repro.workloads.driver import ClosedLoopDriver

        sim = Simulator()
        device = getattr(presets, preset)(sim, element_mb=8, **overrides)
        rng = random.Random(1)
        slots = device.capacity_bytes // KB4
        result = ClosedLoopDriver(
            sim, device,
            lambda i: (OpType.WRITE, rng.randrange(slots) * KB4, KB4),
            count=20_000, depth=8,
        ).run()
        assert result.count == 20_000
        assert result.errors == {}
        assert device.stats.writes == 20_000
        assert not device.ftl.read_only
        assert device.ftl._promised == [0] * device.ftl.n_gangs

    def test_elements_for_range_covers_gang(self):
        _sim, ftl = make_ftl(n_elements=4, gang_size=2)
        elements = ftl.elements_for_range(0, KB4)
        assert elements == [0, 1]
        elements = ftl.elements_for_range(ftl.stripe_bytes, KB4)
        assert elements == [2, 3]


class TestChurnConsistency:
    def test_random_churn_keeps_invariants(self):
        import random

        sim, ftl = make_ftl(n_elements=2, gang_size=2, blocks=32, pages=4)
        prefill_stripe_ftl(ftl, 0.6)
        rng = random.Random(3)
        capacity = ftl.logical_capacity_bytes
        for _ in range(150):
            offset = rng.randrange(capacity // KB4) * KB4
            size = rng.choice([KB4, 2 * KB4, 8 * KB4])
            size = min(size, capacity - offset)
            action = rng.random()
            if action < 0.6:
                ftl.write(offset, size)
            elif action < 0.85:
                ftl.read(offset, size)
            else:
                ftl.trim(offset, size)
            sim.run_until_idle()
            ftl.check_consistency()


class TestStripeWearOut:
    """Rows that reach ``erase_cycles`` leave circulation whole: the RMW
    erases wear every block of a row in lockstep, so the row retires on
    every element of its gang, and once the spares are worn out the device
    goes read-only instead of stalling or raising."""

    def test_worn_rows_retire_and_device_goes_read_only(self):
        import random
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
            ftl_type="blockmap", gang_size=2, spare_fraction=0.25,
        ))
        ftl = ssd.ftl
        width = ftl.group_width

        pooled_worn = []
        row_pooled = ftl._row_pooled

        def watch(gang):
            row = ftl._pool[gang][-1]
            if ftl.elements[gang * width].erase_count[row] >= 3:
                pooled_worn.append((gang, row))
            row_pooled(gang)

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
        assert pooled_worn == []
        worn_rows = 0
        for gang in range(ftl.n_gangs):
            gang_elements = ftl.elements[gang * width:(gang + 1) * width]
            worn = gang_elements[0].erase_count >= 3
            worn_rows += int(worn.sum())
            for el in gang_elements:
                assert (el.erase_count == gang_elements[0].erase_count).all()
                assert el.retired[worn].all()
            assert not set(ftl._pool[gang]) & set(worn.nonzero()[0].tolist())
        assert worn_rows > 0
        assert ftl.stats.blocks_retired == width * worn_rows
        ftl.check_consistency()
