"""Stripe-aligned extent allocator — the device-side block management the
paper wants moved out of the file system (§3.4, §3.7).

Allocations are made in multiples of the device's stripe (logical page)
size and aligned to stripe boundaries, so object writes map onto whole
stripes and never trigger the unaligned-write amplification of §3.4.  The
free list is a sorted sequence of extents with first-fit-by-region
allocation (regions support tier placement on heterogeneous devices).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.units import align_up

__all__ = ["Extent", "ExtentAllocator", "OutOfSpaceError"]


class OutOfSpaceError(RuntimeError):
    """No free extent satisfies the request."""


@dataclass(frozen=True)
class Extent:
    """A physical byte range [start, start+length)."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(f"bad extent ({self.start}, {self.length})")

    @property
    def end(self) -> int:
        return self.start + self.length


class ExtentAllocator:
    """First-fit extent allocator over [0, capacity) with alignment."""

    def __init__(self, capacity_bytes: int, granularity: int) -> None:
        if capacity_bytes <= 0 or granularity <= 0:
            raise ValueError("capacity and granularity must be positive")
        if capacity_bytes % granularity:
            capacity_bytes -= capacity_bytes % granularity
        self.capacity_bytes = capacity_bytes
        self.granularity = granularity
        #: sorted, disjoint, non-adjacent free extents as (start, end) pairs
        self._free: List[Tuple[int, int]] = [(0, capacity_bytes)]
        self.free_bytes = capacity_bytes

    # ------------------------------------------------------------------

    def allocate(
        self,
        nbytes: int,
        region: Optional[Tuple[int, int]] = None,
    ) -> List[Extent]:
        """Allocate ``align_up(nbytes, granularity)`` bytes, possibly as
        multiple extents, optionally restricted to ``region=(lo, hi)``.
        Raises :class:`OutOfSpaceError` if the region cannot satisfy it."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        need = align_up(nbytes, self.granularity)
        lo, hi = region if region is not None else (0, self.capacity_bytes)
        taken: List[Extent] = []
        acquired = 0
        for index in range(len(self._free)):
            if acquired >= need:
                break
            start, end = self._free[index]
            start = max(start, lo)
            end = min(end, hi)
            if end - start < self.granularity:
                continue
            take = min(end - start, need - acquired)
            take -= take % self.granularity
            if take <= 0:
                continue
            taken.append(Extent(start, take))
            acquired += take
        if acquired < need:
            raise OutOfSpaceError(
                f"need {need} bytes in region [{lo}, {hi}), found {acquired}"
            )
        for extent in taken:
            self._remove(extent.start, extent.length)
        self.free_bytes -= acquired
        return taken

    def free(self, extents: List[Extent]) -> None:
        """Return extents to the free list (coalescing neighbours)."""
        for extent in extents:
            if extent.end > self.capacity_bytes:
                raise ValueError(f"extent {extent} beyond capacity")
            self._insert(extent.start, extent.end)
            self.free_bytes += extent.length

    # ------------------------------------------------------------------

    def _remove(self, start: int, length: int) -> None:
        """Carve [start, start+length) out of the free list."""
        end = start + length
        index = bisect.bisect_right(self._free, (start, self.capacity_bytes + 1)) - 1
        if index < 0:
            index = 0
        fstart, fend = self._free[index]
        if not (fstart <= start and end <= fend):
            raise ValueError(
                f"carving non-free range [{start}, {end}) from ({fstart}, {fend})"
            )
        pieces: List[Tuple[int, int]] = []
        if fstart < start:
            pieces.append((fstart, start))
        if end < fend:
            pieces.append((end, fend))
        self._free[index : index + 1] = pieces

    def _insert(self, start: int, end: int) -> None:
        """Insert [start, end) into the free list, coalescing neighbours and
        rejecting overlap (double free)."""
        index = bisect.bisect_left(self._free, (start, end))
        if index > 0 and self._free[index - 1][1] > start:
            raise ValueError(f"double free of [{start}, {end})")
        if index < len(self._free) and self._free[index][0] < end:
            raise ValueError(f"double free of [{start}, {end})")
        merge_prev = index > 0 and self._free[index - 1][1] == start
        merge_next = index < len(self._free) and self._free[index][0] == end
        if merge_prev and merge_next:
            self._free[index - 1] = (self._free[index - 1][0], self._free[index][1])
            del self._free[index]
        elif merge_prev:
            self._free[index - 1] = (self._free[index - 1][0], end)
        elif merge_next:
            self._free[index] = (start, self._free[index][1])
        else:
            self._free.insert(index, (start, end))

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Free list is sorted, disjoint, non-adjacent, and sums correctly."""
        total = 0
        previous_end = -1
        for start, end in self._free:
            assert start < end, f"empty free extent ({start}, {end})"
            assert start > previous_end, "free list not sorted/coalesced"
            total += end - start
            previous_end = end
        assert total == self.free_bytes, (
            f"free bytes {self.free_bytes} != sum of extents {total}"
        )
