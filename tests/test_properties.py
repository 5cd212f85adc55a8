"""Property-based tests (hypothesis) on core data structures and invariants.

These check the properties the whole reproduction rests on:

* the FTLs preserve the logical/physical mapping bijection under arbitrary
  interleavings of writes, trims, and reads (with cleaning racing them);
* the extent allocator never loses or duplicates a byte;
* the Ext3-style allocator never double-allocates;
* the event loop is deterministic and ordered;
* trace generators respect their declared bounds.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import ExtentAllocator, OutOfSpaceError
from repro.flash.element import FlashElement, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.blockmap import BlockMappedFTL
from repro.ftl.pagemap import PageMappedFTL
from repro.ftl.prefill import prefill_pagemap
from repro.sim.engine import Simulator
from repro.traces.filesystem import Ext3LiteAllocator
from repro.traces.synthetic import SyntheticConfig, generate_synthetic

KB4 = 4096

common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_pagemap(n_elements=2, blocks=24, pages=8, lp_pages=1):
    sim = Simulator()
    geom = FlashGeometry(page_bytes=KB4, pages_per_block=pages,
                         blocks_per_element=blocks)
    elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                for i in range(n_elements)]
    ftl = PageMappedFTL(sim, elements, logical_page_bytes=lp_pages * KB4,
                        spare_fraction=0.25)
    return sim, ftl


class TestPagemapProperties:
    @common
    @given(st.lists(
        st.tuples(st.sampled_from(["w", "t", "r"]),
                  st.integers(0, 60), st.integers(1, 6)),
        min_size=1, max_size=60,
    ))
    def test_mapping_invariants_under_random_ops(self, ops):
        sim, ftl = make_pagemap()
        cap_pages = ftl.logical_capacity_bytes // KB4
        shadow = set()  # logical pages currently mapped
        for kind, start, length in ops:
            start = start % cap_pages
            length = min(length, cap_pages - start)
            if length == 0:
                continue
            offset, size = start * KB4, length * KB4
            if kind == "w":
                if not ftl.can_accept_write(offset, size):
                    continue
                ftl.write(offset, size)
                shadow.update(range(start, start + length))
            elif kind == "t":
                ftl.trim(offset, size)
                shadow.difference_update(range(start, start + length))
            else:
                ftl.read(offset, size)
            sim.run_until_idle()
            ftl.check_consistency()
        for lpn in range(cap_pages):
            mapped = ftl.mapped_ppn(lpn) >= 0
            assert mapped == (lpn in shadow), (
                f"lpn {lpn}: mapped={mapped}, shadow={lpn in shadow}"
            )

    @common
    @given(st.integers(0, 2**32 - 1))
    def test_churn_beyond_capacity_stays_consistent(self, seed):
        sim, ftl = make_pagemap(blocks=16, pages=8)
        rng = random.Random(seed)
        cap_pages = ftl.logical_capacity_bytes // KB4
        for _ in range(cap_pages * 3):
            lpn = rng.randrange(cap_pages)
            if ftl.can_accept_write(lpn * KB4, KB4):
                ftl.write(lpn * KB4, KB4)
            sim.run_until_idle()
            ftl.check_consistency()
        assert ftl.stats.clean_erases > 0

    @common
    @given(st.floats(0.1, 0.9), st.floats(0.0, 0.4), st.integers(0, 999))
    def test_prefill_always_consistent(self, fill, overwrite, seed):
        _sim, ftl = make_pagemap(blocks=32, pages=8)
        prefill_pagemap(ftl, fill, overwrite_fraction=overwrite,
                        rng=random.Random(seed))
        ftl.check_consistency()

    @common
    @given(st.integers(1, 4))
    def test_striped_write_read_roundtrip(self, lp_pages):
        if lp_pages == 3:
            lp_pages = 2  # shard count must divide the element count
        sim, ftl = make_pagemap(n_elements=4, lp_pages=lp_pages)
        ftl.write(0, lp_pages * KB4)
        sim.run_until_idle()
        assert ftl.mapped_ppn(0, shard=0) >= 0
        ftl.check_consistency()


class TestBlockmapProperties:
    @common
    @given(st.lists(
        st.tuples(st.sampled_from(["w", "t"]),
                  st.integers(0, 40), st.integers(1, 10)),
        min_size=1, max_size=40,
    ))
    def test_stripe_partition_invariant(self, ops):
        sim = Simulator()
        geom = FlashGeometry(page_bytes=KB4, pages_per_block=4,
                             blocks_per_element=24)
        elements = [FlashElement(sim, geom, FlashTiming.slc(), element_id=i)
                    for i in range(2)]
        ftl = BlockMappedFTL(sim, elements, spare_fraction=0.25)
        cap_pages = ftl.logical_capacity_bytes // KB4
        for kind, start, length in ops:
            start = start % cap_pages
            length = min(length, cap_pages - start)
            if length == 0:
                continue
            offset, size = start * KB4, length * KB4
            if kind == "w":
                if not ftl.can_accept_write(offset, size):
                    continue
                ftl.write(offset, size)
            else:
                ftl.trim(offset, size)
            sim.run_until_idle()
        ftl.check_consistency()


class TestExtentAllocatorProperties:
    @common
    @given(st.lists(st.integers(1, 64), min_size=1, max_size=40),
           st.integers(0, 2**16))
    def test_conservation_of_bytes(self, sizes, seed):
        alloc = ExtentAllocator(1 << 20, granularity=4096)
        rng = random.Random(seed)
        held = []
        for size_kib in sizes:
            if held and rng.random() < 0.4:
                alloc.free(held.pop(rng.randrange(len(held))))
            else:
                try:
                    held.append(alloc.allocate(size_kib * 1024))
                except OutOfSpaceError:
                    pass
            alloc.check_invariants()
        total_held = sum(e.length for batch in held for e in batch)
        assert total_held + alloc.free_bytes == alloc.capacity_bytes

    @common
    @given(st.lists(st.integers(1, 16), min_size=1, max_size=30))
    def test_allocations_are_disjoint(self, sizes):
        alloc = ExtentAllocator(1 << 19, granularity=4096)
        seen = set()
        for size_kib in sizes:
            try:
                extents = alloc.allocate(size_kib * 1024)
            except OutOfSpaceError:
                break
            for extent in extents:
                pages = set(range(extent.start, extent.end, 4096))
                assert not pages & seen, "allocator handed out a byte twice"
                seen.update(pages)


class TestExt3AllocatorProperties:
    @common
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=50),
           st.integers(0, 2**16))
    def test_no_double_allocation(self, sizes, seed):
        alloc = Ext3LiteAllocator(600, blocks_per_group=100)
        rng = random.Random(seed)
        held = []
        outstanding = set()
        for count in sizes:
            if held and rng.random() < 0.45:
                blocks = held.pop(rng.randrange(len(held)))
                alloc.free(blocks)
                outstanding.difference_update(blocks)
            elif count <= alloc.free_blocks:
                blocks = alloc.allocate(count, group_hint=rng.randrange(6))
                assert not set(blocks) & outstanding
                outstanding.update(blocks)
                held.append(blocks)
        assert len(outstanding) == alloc.total_blocks - alloc.free_blocks


class TestEngineProperties:
    @common
    @given(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=100))
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @common
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50),
           st.floats(0.0, 100.0))
    def test_run_until_boundary(self, delays, boundary):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until_us=boundary)
        assert all(d <= boundary for d in fired)
        assert sim.now >= boundary or not delays


class TestSyntheticProperties:
    @common
    @given(st.integers(1, 500), st.floats(0, 1), st.floats(0, 1),
           st.integers(0, 2**20))
    def test_generator_respects_bounds(self, count, read_fraction,
                                       seq_probability, seed):
        config = SyntheticConfig(
            count=count,
            region_bytes=1 << 20,
            request_bytes=4096,
            read_fraction=read_fraction,
            seq_probability=seq_probability,
            seed=seed,
        )
        records = generate_synthetic(config)
        assert len(records) == count
        previous = 0.0
        for record in records:
            assert 0 <= record.offset
            assert record.end <= config.region_bytes
            assert record.offset % 512 == 0
            assert record.time_us >= previous
            previous = record.time_us
