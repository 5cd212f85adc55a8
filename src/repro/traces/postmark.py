"""Postmark-style file workload → block trace with delete notifications.

Postmark [14] models small-file mail/news servers: create an initial file
pool, then run transactions that create, delete, read, or append files.
Run over :class:`repro.traces.filesystem.Ext3LiteAllocator`, every file
operation becomes block-level READ/WRITE records, and every delete emits
FREE records for the file's blocks — the trace shape the paper's informed
cleaning experiment needs (reads, writes, *and* block-free operations,
§3.5).

The generator is deterministic per seed and tracks enough state (file →
block extents) to emit exact FREE ranges on delete, with freed blocks
eagerly reused by later allocations, as Ext3 does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.checks import Checked, bounded
from repro.device.interface import OpType
from repro.sim.rng import stream
from repro.traces.filesystem import Ext3LiteAllocator
from repro.traces.record import TraceRecord

__all__ = ["PostmarkConfig", "generate_postmark"]

_BLOCK = 4096
#: transaction mix (create+delete and read+append, as in Postmark)
CREATE_BIAS = 0.5
READ_BIAS = 0.5


@dataclass(frozen=True)
class PostmarkConfig(Checked):
    """Postmark knobs (sizes in bytes; block-level granularity is 4 KB)."""

    volume_bytes: int = bounded(256 << 20, ge=_BLOCK)
    initial_files: int = bounded(500, ge=1)
    transactions: int = bounded(5000, ge=0)
    min_file_bytes: int = bounded(4096, ge=1)
    max_file_bytes: int = bounded(64 * 1024, ge=1)
    #: mean inter-arrival between block operations
    interarrival_us: float = bounded(200.0, gt=0)
    seed: int = bounded(42)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_file_bytes < self.min_file_bytes:
            raise ValueError(
                f"max_file_bytes ({self.max_file_bytes}) must be >= "
                f"min_file_bytes ({self.min_file_bytes})")


class _File:
    __slots__ = ("blocks", "group")

    def __init__(self, blocks: List[int], group: int):
        self.blocks = blocks
        self.group = group


def generate_postmark(config: PostmarkConfig) -> List[TraceRecord]:
    """Run the Postmark state machine; returns the block-level trace."""
    size_rng = stream(config.seed, "sizes")
    op_rng = stream(config.seed, "ops")
    pick_rng = stream(config.seed, "files")
    arrival_rng = stream(config.seed, "arrivals")

    allocator = Ext3LiteAllocator(config.volume_bytes // _BLOCK)
    files: Dict[int, _File] = {}
    next_id = 0
    records: List[TraceRecord] = []
    clock = [0.0]

    def tick() -> float:
        clock[0] += arrival_rng.expovariate(1.0 / config.interarrival_us)
        return clock[0]

    def emit(op: OpType, blocks: List[int]) -> None:
        """Coalesce consecutive block runs into single records."""
        if not blocks:
            return
        run_start = blocks[0]
        run_len = 1
        for block in blocks[1:]:
            if block == run_start + run_len:
                run_len += 1
                continue
            records.append(
                TraceRecord(tick(), op, run_start * _BLOCK, run_len * _BLOCK)
            )
            run_start, run_len = block, 1
        records.append(
            TraceRecord(tick(), op, run_start * _BLOCK, run_len * _BLOCK)
        )

    def create_file() -> None:
        nonlocal next_id
        nbytes = size_rng.randint(config.min_file_bytes, config.max_file_bytes)
        nblocks = -(-nbytes // _BLOCK)
        if allocator.free_blocks < nblocks:
            return  # volume full: Postmark would error; we skip the create
        group = pick_rng.randrange(allocator.n_groups)
        blocks = allocator.allocate(nblocks, group_hint=group)
        files[next_id] = _File(blocks, group)
        next_id += 1
        emit(OpType.WRITE, blocks)

    def delete_file() -> None:
        if not files:
            return
        fid = pick_rng.choice(list(files))
        victim = files.pop(fid)
        allocator.free(victim.blocks)
        emit(OpType.FREE, victim.blocks)

    def read_file() -> None:
        if not files:
            return
        fid = pick_rng.choice(list(files))
        emit(OpType.READ, files[fid].blocks)

    def append_file() -> None:
        if not files:
            return
        fid = pick_rng.choice(list(files))
        target = files[fid]
        nbytes = size_rng.randint(config.min_file_bytes, config.max_file_bytes) // 4
        nblocks = max(1, nbytes // _BLOCK)
        if allocator.free_blocks < nblocks:
            return
        blocks = allocator.allocate(nblocks, group_hint=target.group)
        target.blocks.extend(blocks)
        emit(OpType.WRITE, blocks)

    for _ in range(config.initial_files):
        create_file()
    for _ in range(config.transactions):
        if op_rng.random() < 0.5:
            if op_rng.random() < CREATE_BIAS:
                create_file()
            else:
                delete_file()
        else:
            if op_rng.random() < READ_BIAS:
                read_file()
            else:
                append_file()
    # Postmark ends by deleting remaining files; keep that phase — it is a
    # burst of FREEs that informed cleaning exploits
    for fid in list(files):
        victim = files.pop(fid)
        allocator.free(victim.blocks)
        emit(OpType.FREE, victim.blocks)
    return records
