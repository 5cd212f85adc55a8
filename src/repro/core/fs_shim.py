"""The baseline: a file system doing block management over the narrow
interface (what the paper argues *against*).

:class:`BlockFilesystem` allocates file blocks with the Ext3-style
allocator and issues plain READ/WRITE.  On delete it frees blocks in its
own bitmap but — through the standard block interface — the device never
learns (``pseudo_driver=False``).  With ``pseudo_driver=True`` it emulates
the paper's experimental hack: "a pseudo-device driver that uses Linux Ext3
knowledge to identify the free sectors" and forwards FREE notifications.

Comparing (no notification) / (pseudo-driver) / (ObjectStore) on the same
file workload is ablation A4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.device.interface import IORequest, OpType, submit_pieces
from repro.traces.filesystem import Ext3LiteAllocator

__all__ = ["BlockFilesystem", "FilesystemError"]

_BLOCK = 4096


class FilesystemError(RuntimeError):
    """Bad file operation."""


class BlockFilesystem:
    """A minimal extent-less file system over a block device."""

    def __init__(self, device, pseudo_driver: bool = False) -> None:
        self.device = device
        self.sim = device.sim
        self.pseudo_driver = pseudo_driver
        self.allocator = Ext3LiteAllocator(device.capacity_bytes // _BLOCK)
        self._files: Dict[int, List[int]] = {}
        self._next_fid = 1
        self.frees_issued = 0

    # ------------------------------------------------------------------

    def create(self, nbytes: int, group_hint: int = 0,
               done: Optional[Callable[[Optional[str]], None]] = None) -> int:
        """Create a file of *nbytes* (rounded up to 4 KB blocks) and write
        it; ``done`` gets the first failed write's error (None on success)."""
        if nbytes <= 0:
            raise FilesystemError("file size must be positive")
        nblocks = -(-nbytes // _BLOCK)
        blocks = self.allocator.allocate(nblocks, group_hint=group_hint)
        fid = self._next_fid
        self._next_fid += 1
        self._files[fid] = blocks
        self._submit_runs(OpType.WRITE, blocks, done)
        return fid

    def delete(self, fid: int,
               done: Optional[Callable[[Optional[str]], None]] = None) -> None:
        """Delete: the FS frees its own bitmap; the device only hears about
        it through the pseudo-driver (if enabled)."""
        blocks = self._files.pop(fid, None)
        if blocks is None:
            raise FilesystemError(f"no such file {fid}")
        self.allocator.free(blocks)
        if self.pseudo_driver and blocks:
            self.frees_issued += 1
            self._submit_runs(OpType.FREE, blocks, done)
        else:
            submit_pieces(self.sim, [], done)

    # ------------------------------------------------------------------

    def _submit_runs(self, op: OpType, blocks: List[int],
                     done: Optional[Callable[[Optional[str]], None]]) -> None:
        """Submit one request per contiguous block run."""
        runs: List[tuple[int, int]] = []
        if blocks:
            start = blocks[0]
            length = 1
            for block in blocks[1:]:
                if block == start + length:
                    length += 1
                else:
                    runs.append((start, length))
                    start, length = block, 1
            runs.append((start, length))
        submit_pieces(self.sim, [
            (self.device, IORequest(op, start * _BLOCK, length * _BLOCK))
            for start, length in runs
        ], done)
