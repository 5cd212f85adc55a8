"""A minimal Ext3-flavoured block allocator for the file workload generators.

The paper's informed-cleaning experiment ran Postmark on Ext3 over a
pseudo-device driver that reported freed sectors to the simulator (§3.5).
To regenerate that trace shape we need an allocator with Ext3's relevant
behaviour: block groups, a rotating goal pointer per group (next-fit), and
a group hint per file.  The goal pointer means freed blocks are *not*
reused immediately — allocation cycles through the whole volume first — so
at any moment a large set of device addresses holds dead file data.  An
uninformed SSD dutifully preserves all of it; that is precisely the waste
Table 5 quantifies.

This is an allocator model, not a file system: no journals, no metadata
blocks — the generators account for data blocks only.
"""

from __future__ import annotations

import bisect
from typing import List

__all__ = ["Ext3LiteAllocator", "AllocationError"]


class AllocationError(RuntimeError):
    """The allocator ran out of blocks."""


class Ext3LiteAllocator:
    """Block-group bitmap allocator with next-fit (goal pointer) policy."""

    def __init__(self, total_blocks: int, blocks_per_group: int = 8192) -> None:
        if total_blocks <= 0 or blocks_per_group <= 0:
            raise ValueError("block counts must be positive")
        self.total_blocks = total_blocks
        self.blocks_per_group = min(blocks_per_group, total_blocks)
        self.n_groups = -(-total_blocks // self.blocks_per_group)
        #: per-group sorted free lists
        self._free: List[List[int]] = []
        #: per-group goal pointer: allocation resumes after the last grant
        self._cursor: List[int] = [0] * self.n_groups
        for group in range(self.n_groups):
            start = group * self.blocks_per_group
            end = min(start + self.blocks_per_group, total_blocks)
            self._free.append(list(range(start, end)))
            self._cursor[group] = start
        self.free_blocks = total_blocks

    def _take_from_group(self, group: int, count: int) -> List[int]:
        bucket = self._free[group]
        if not bucket:
            return []
        index = bisect.bisect_left(bucket, self._cursor[group])
        out: List[int] = []
        # from the goal pointer to the end, then wrap
        take = min(count, len(bucket) - index)
        out.extend(bucket[index : index + take])
        del bucket[index : index + take]
        if len(out) < count and bucket:
            take = min(count - len(out), index)
            out.extend(bucket[:take])
            del bucket[:take]
        if out:
            self._cursor[group] = out[-1] + 1
        return out

    def allocate(self, count: int, group_hint: int = 0) -> List[int]:
        """Allocate *count* blocks, preferring the hinted group, spilling to
        subsequent groups Ext3-style.  Returns the block numbers."""
        if count <= 0:
            raise ValueError("count must be positive")
        if count > self.free_blocks:
            raise AllocationError(
                f"need {count} blocks, only {self.free_blocks} free"
            )
        out: List[int] = []
        group = group_hint % self.n_groups
        scanned = 0
        while len(out) < count and scanned <= self.n_groups:
            out.extend(self._take_from_group(group, count - len(out)))
            group = (group + 1) % self.n_groups
            scanned += 1
        if len(out) < count:  # pragma: no cover - guarded by free_blocks
            raise AllocationError("allocator inconsistency")
        self.free_blocks -= len(out)
        return out

    def free(self, blocks: List[int]) -> None:
        """Return blocks to their groups (kept sorted); rejects double frees."""
        for block in blocks:
            if not 0 <= block < self.total_blocks:
                raise ValueError(f"block {block} out of range")
            group = block // self.blocks_per_group
            bucket = self._free[group]
            index = bisect.bisect_left(bucket, block)
            if index < len(bucket) and bucket[index] == block:
                raise ValueError(f"double free of block {block}")
            bucket.insert(index, block)
        self.free_blocks += len(blocks)
