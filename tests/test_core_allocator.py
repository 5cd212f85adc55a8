"""Tests for the stripe-aligned extent allocator."""

from __future__ import annotations

import pytest

from repro.core.allocator import Extent, ExtentAllocator, OutOfSpaceError
from repro.units import KIB, MIB


class TestExtent:
    def test_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 10)
        with pytest.raises(ValueError):
            Extent(0, 0)

    def test_end(self):
        assert Extent(100, 50).end == 150


class TestAllocate:
    def test_simple_allocation_is_aligned(self):
        alloc = ExtentAllocator(MIB, granularity=32 * KIB)
        extents = alloc.allocate(10 * KIB)
        assert len(extents) == 1
        assert extents[0].length == 32 * KIB  # rounded up
        assert extents[0].start % (32 * KIB) == 0

    def test_free_bytes_tracked(self):
        alloc = ExtentAllocator(MIB, granularity=4 * KIB)
        alloc.allocate(100 * KIB)
        assert alloc.free_bytes == MIB - 100 * KIB
        alloc.check_invariants()

    def test_exhaustion_raises(self):
        alloc = ExtentAllocator(64 * KIB, granularity=4 * KIB)
        alloc.allocate(64 * KIB)
        with pytest.raises(OutOfSpaceError):
            alloc.allocate(4 * KIB)

    def test_region_restriction(self):
        alloc = ExtentAllocator(MIB, granularity=4 * KIB)
        extents = alloc.allocate(8 * KIB, region=(512 * KIB, MIB))
        assert all(e.start >= 512 * KIB for e in extents)

    def test_region_exhaustion_raises_without_touching_other_space(self):
        alloc = ExtentAllocator(MIB, granularity=4 * KIB)
        alloc.allocate(512 * KIB, region=(0, 512 * KIB))
        with pytest.raises(OutOfSpaceError):
            alloc.allocate(4 * KIB, region=(0, 512 * KIB))
        assert alloc.free_bytes == 512 * KIB
        alloc.check_invariants()

    def test_fragmented_allocation_spans_extents(self):
        alloc = ExtentAllocator(64 * KIB, granularity=4 * KIB)
        pieces = [alloc.allocate(4 * KIB) for _ in range(16)]
        # free every other 4 KiB hole
        for piece in pieces[::2]:
            alloc.free(piece)
        extents = alloc.allocate(16 * KIB)
        assert sum(e.length for e in extents) == 16 * KIB
        assert len(extents) > 1
        alloc.check_invariants()

    def test_invalid_nbytes(self):
        alloc = ExtentAllocator(MIB, granularity=4 * KIB)
        with pytest.raises(ValueError):
            alloc.allocate(0)


class TestFree:
    def test_free_coalesces(self):
        alloc = ExtentAllocator(64 * KIB, granularity=4 * KIB)
        a = alloc.allocate(4 * KIB)
        b = alloc.allocate(4 * KIB)
        alloc.free(a)
        alloc.free(b)
        alloc.check_invariants()
        # coalesced: the whole volume comes back as one extent
        assert alloc.allocate(64 * KIB) == [Extent(0, 64 * KIB)]

    def test_double_free_rejected(self):
        alloc = ExtentAllocator(64 * KIB, granularity=4 * KIB)
        extents = alloc.allocate(8 * KIB)
        alloc.free(extents)
        with pytest.raises(ValueError):
            alloc.free(extents)

    def test_free_beyond_capacity_rejected(self):
        alloc = ExtentAllocator(64 * KIB, granularity=4 * KIB)
        with pytest.raises(ValueError):
            alloc.free([Extent(60 * KIB, 8 * KIB)])

    def test_full_cycle_restores_capacity(self):
        alloc = ExtentAllocator(256 * KIB, granularity=4 * KIB)
        batches = [alloc.allocate(16 * KIB) for _ in range(16)]
        for batch in batches:
            alloc.free(batch)
        assert alloc.free_bytes == 256 * KIB
        alloc.check_invariants()
        assert alloc.allocate(256 * KIB) == [Extent(0, 256 * KIB)]
